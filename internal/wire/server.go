package wire

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"prima"
	"prima/internal/access/addr"
	"prima/internal/core"
	"prima/internal/obs"
)

// Resilience defaults; a ServerConfig field of 0 selects these, a negative
// value disables the knob entirely.
const (
	// DefaultIdleTimeout bounds how long a connection may sit between
	// requests. Design sessions are long-lived (§4: a workstation keeps
	// molecules checked out for hours), so the default is generous — it
	// exists to reclaim conns whose peer is gone, not to cut slow thinkers.
	DefaultIdleTimeout = 10 * time.Minute
	// DefaultReadTimeout bounds reading a request body once its frame
	// header arrived: a peer that starts a frame must finish it promptly.
	DefaultReadTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds each response/stream-frame write; it is
	// what unpins cursors and snapshots when a streaming client dies.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultMaxConns caps concurrently open connections.
	DefaultMaxConns = 1024
	// DefaultMaxInFlight caps concurrently executing requests.
	DefaultMaxInFlight = 64
	// DefaultQueueWait bounds how long an admitted connection's request
	// waits for an in-flight slot before being shed with a retryable error.
	DefaultQueueWait = time.Second
	// acceptRetryLimit bounds consecutive transient accept failures before
	// the accept loop gives up (a listener that fails this often is dead).
	acceptRetryLimit = 100
	// acceptBackoffMax caps the accept retry backoff.
	acceptBackoffMax = time.Second
)

// ServerConfig tunes the server's resilience behavior. The zero value
// selects the defaults above; negative values disable individual knobs
// (no timeout / no cap).
type ServerConfig struct {
	IdleTimeout  time.Duration // max silence between requests on a conn
	ReadTimeout  time.Duration // max time to finish a started request frame
	WriteTimeout time.Duration // max time per response/stream-frame write
	MaxConns     int           // concurrent connection cap
	MaxInFlight  int           // concurrent request cap
	QueueWait    time.Duration // max wait for an in-flight slot before shedding
}

func (c ServerConfig) withDefaults() ServerConfig {
	def := func(v *time.Duration, d time.Duration) {
		if *v == 0 {
			*v = d
		} else if *v < 0 {
			*v = 0
		}
	}
	def(&c.IdleTimeout, DefaultIdleTimeout)
	def(&c.ReadTimeout, DefaultReadTimeout)
	def(&c.WriteTimeout, DefaultWriteTimeout)
	if c.MaxConns == 0 {
		c.MaxConns = DefaultMaxConns
	} else if c.MaxConns < 0 {
		c.MaxConns = 0
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	} else if c.MaxInFlight < 0 {
		c.MaxInFlight = 0
	}
	def(&c.QueueWait, DefaultQueueWait)
	return c
}

// srvConn is one accepted connection plus the state the drain protocol
// needs: a request is either being served (active) or the conn is idle
// between requests; a draining server closes idle conns immediately and
// lets active ones finish their current request.
type srvConn struct {
	net.Conn
	mu     sync.Mutex
	active bool
	doomed bool // close as soon as the conn is not serving a request

	// Owned by the conn's handler goroutine: the request read buffer, the
	// response encoder with the conn's type dictionary, and the write
	// horizon of the session's last exec. A session reads its own writes: a
	// snapshot opens below the oldest write in flight, so before the next
	// request reads, every write up to the horizon must have completed,
	// other sessions' older ones included.
	rbuf    []byte
	enc     encoder
	horizon uint64
}

// beginRequest marks the conn active; it reports false when the conn was
// doomed while idle-reading, in which case the just-read request must be
// discarded unprocessed (the peer sees a closed conn, exactly as if the
// request had never arrived).
func (sc *srvConn) beginRequest() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.doomed {
		return false
	}
	sc.active = true
	return true
}

// endRequest marks the conn idle again; it reports false when the conn was
// doomed mid-request and the handler must exit.
func (sc *srvConn) endRequest() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.active = false
	return !sc.doomed
}

// drainClose dooms the conn: closed now if idle, after the in-flight
// request otherwise.
func (sc *srvConn) drainClose() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.doomed = true
	if !sc.active {
		sc.Conn.Close()
	}
}

// Server exposes a PRIMA database over TCP.
type Server struct {
	db  *prima.DB
	ln  net.Listener
	cfg ServerConfig

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[*srvConn]struct{}
	wg       sync.WaitGroup // one count per live handler

	inflight chan struct{} // in-flight request semaphore (nil = unlimited)

	// Wire health counters, mirrored into the database's registry.
	connsTotal    atomic.Uint64
	connsRejected atomic.Uint64
	requests      atomic.Uint64
	shed          atomic.Uint64
	streamAborts  atomic.Uint64
	panics        atomic.Uint64
	acceptRetries atomic.Uint64

	// opNs times each op's server-side handling (admission through response
	// written), by op code; encodeNs each response frame's serialisation and
	// requestDecodeNs each request's decoding.
	opNs            [numOps]*obs.Histogram
	encodeNs        *obs.Histogram
	requestDecodeNs *obs.Histogram
}

// Serve starts serving on the given address ("" picks an ephemeral port)
// with the default resilience configuration.
func Serve(db *prima.DB, address string) (*Server, error) {
	return ServeConfig(db, address, ServerConfig{})
}

// ServeConfig starts serving with explicit resilience knobs.
func ServeConfig(db *prima.DB, address string, cfg ServerConfig) (*Server, error) {
	if address == "" {
		address = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", address)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return ServeListener(db, ln, cfg), nil
}

// ServeListener serves on an established listener — the injection point for
// fault-wrapped listeners (FaultPlan.Listen) and custom transports. The
// server owns the listener and closes it on shutdown.
func ServeListener(db *prima.DB, ln net.Listener, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{db: db, ln: ln, cfg: cfg, conns: map[*srvConn]struct{}{}}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	reg := db.System().Obs()
	for op := OpPing; op < numOps; op++ {
		s.opNs[op] = reg.Histogram("wire_" + op.String() + "_ns")
	}
	s.encodeNs = reg.Histogram("wire_encode_ns")
	s.requestDecodeNs = reg.Histogram("wire_request_decode_ns")
	// Mirror the wire health counters into the database's registry so one
	// snapshot covers the whole stack. Registration replaces any previous
	// server's mirrors (last server wins) — fine for the one-server-per-DB
	// deployment primad runs, and harmless in tests that re-serve a DB.
	reg.GaugeFunc("wire_conns_active", func() float64 { return float64(s.ActiveConns()) })
	reg.GaugeFunc("wire_inflight", func() float64 { return float64(s.InFlight()) })
	reg.CounterFunc("wire_conns_total", s.connsTotal.Load)
	reg.CounterFunc("wire_conns_rejected", s.connsRejected.Load)
	reg.CounterFunc("wire_requests", s.requests.Load)
	reg.CounterFunc("wire_shed", s.shed.Load)
	reg.CounterFunc("wire_stream_aborts", s.streamAborts.Load)
	reg.CounterFunc("wire_panics", s.panics.Load)
	reg.CounterFunc("wire_accept_retries", s.acceptRetries.Load)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ActiveConns returns the number of currently open connections.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// InFlight returns the number of requests being served right now.
func (s *Server) InFlight() int {
	if s.inflight == nil {
		return -1
	}
	return len(s.inflight)
}

// Close stops the server immediately: the listener and every connection are
// closed, in-flight requests fail their writes, and Close returns only
// after the last handler has exited — no handler touches the DB after
// Close returns.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sc := range conns {
		sc.Conn.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting, closes idle
// connections, lets every in-flight request finish (a checkout stream runs
// to completion), and returns once all handlers exited. If ctx expires
// first, the remaining connections are closed hard and ctx's error is
// returned; Shutdown still waits for the handlers before returning, so the
// DB can be closed safely afterwards either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, sc := range conns {
		sc.drainClose()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for sc := range s.conns {
			sc.Conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}

// acceptLoop accepts connections until the listener closes. Transient
// accept errors (EMFILE, injected faults) are retried with exponential
// backoff instead of killing the loop; only acceptRetryLimit consecutive
// failures — or a closed listener — end it.
func (s *Server) acceptLoop() {
	backoff := 5 * time.Millisecond
	fails := 0
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped || errors.Is(err, net.ErrClosed) {
				return
			}
			fails++
			if fails > acceptRetryLimit {
				log.Printf("wire: accept failed %d times, giving up: %v", fails, err)
				return
			}
			s.acceptRetries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		fails, backoff = 0, 5*time.Millisecond
		s.admit(conn)
	}
}

// admit applies the connection cap and registers the conn. A rejected conn
// gets a retryable error response so a well-behaved client backs off
// instead of reconnect-hammering.
func (s *Server) admit(conn net.Conn) {
	sc := &srvConn{Conn: conn}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.connsRejected.Add(1)
		go func() {
			s.writeReply(sc, nil, &reply{Retryable: true,
				Error: fmt.Sprintf("connection cap (%d) reached", s.cfg.MaxConns)})
			conn.Close()
		}()
		return
	}
	s.conns[sc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.connsTotal.Add(1)
	go s.handle(sc)
}

// handle serves one connection. A panic anywhere in request handling is
// recovered here: the conn dies, the server does not.
func (s *Server) handle(sc *srvConn) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("wire: handler panic: %v", r)
		}
		sc.Conn.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()
	var req Request
	for {
		if err := s.readRequest(sc, &req); err != nil {
			return // peer gone, idle-timed out, or mid-frame stall
		}
		if !sc.beginRequest() {
			return // doomed while idle: discard unprocessed
		}
		if !s.serveRequest(sc, &req) {
			return
		}
		if !sc.endRequest() {
			return // doomed mid-request: served, now close
		}
	}
}

// readRequest reads one request under the deadline regime: waiting for the
// frame header spends the idle budget, reading the body the (much shorter)
// read budget. A frame that does not decode fails the connection.
func (s *Server) readRequest(sc *srvConn, req *Request) error {
	if err := s.setReadDeadline(sc, s.cfg.IdleTimeout); err != nil {
		return err
	}
	buf, n, err := readFrameLen(sc, sc.rbuf)
	if sc.rbuf = buf; err != nil {
		return err
	}
	if err := s.setReadDeadline(sc, s.cfg.ReadTimeout); err != nil {
		return err
	}
	body, err := readFrameBody(sc, sc.rbuf, n)
	if sc.rbuf = body; cap(body) > keepBuf {
		sc.rbuf = nil
	}
	if err != nil {
		return err
	}
	defer obs.Start(s.requestDecodeNs).End()
	return decodeRequest(body, req)
}

func (s *Server) setReadDeadline(sc *srvConn, d time.Duration) error {
	if d <= 0 {
		return sc.Conn.SetReadDeadline(time.Time{})
	}
	return sc.Conn.SetReadDeadline(time.Now().Add(d))
}

// writeReply encodes one response frame into the conn's buffer and writes
// it, header and body in one Write, under the write deadline. The encoding
// is an "encode" span of tr and one wire_encode_ns sample. A response too
// big for a frame is answered with the error instead: nothing of it was
// written, so the connection stays usable.
func (s *Server) writeReply(sc *srvConn, tr *obs.Trace, r *reply) error {
	sp, t0 := tr.Root().Child("encode"), time.Now()
	frame, err := sc.enc.response(r)
	if err != nil {
		frame, err = sc.enc.response(&reply{Error: err.Error(), TraceID: r.TraceID})
	}
	s.encodeNs.ObserveSince(t0)
	sp.End()
	if err != nil {
		return err
	}
	return s.writeFrame(sc, frame)
}

func (s *Server) writeFrame(sc *srvConn, frame []byte) error {
	if s.cfg.WriteTimeout > 0 {
		if err := sc.Conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return err
		}
	}
	_, err := sc.Conn.Write(frame)
	return err
}

// serveRequest admits one request through the in-flight semaphore and
// serves it; it reports false when the connection is no longer usable.
// Ping, stats and slow bypass admission control: they are cheap and they are
// how an operator observes an overloaded server.
//
// Non-diagnostic requests run under a request trace when the DB's tracer is
// armed (sampling or a slow-query threshold): the trace ID rides back on the
// response so a client can correlate its worst latencies with the server's
// retained span trees. The trace finishes after the response (or the last
// stream frame) is written, so slow-query retention sees the full
// server-side duration including the write.
func (s *Server) serveRequest(sc *srvConn, req *Request) bool {
	diagnostic := req.Op == OpPing || req.Op == OpStats || req.Op == OpSlow
	if !diagnostic {
		if !s.acquireSlot() {
			s.shed.Add(1)
			return s.writeReply(sc, nil, &reply{Retryable: true,
				Error: fmt.Sprintf("shed: %d requests in flight, queue wait exceeded", len(s.inflight))}) == nil
		}
		defer func() { <-s.inflight }()
	}
	s.requests.Add(1)
	opStart := time.Now()
	var tr *obs.Trace
	if !diagnostic {
		tr = s.db.Tracer().Begin(traceNames[req.Op])
		tr.SetAttr("op", req.Op.String())
		if req.MQL != "" {
			tr.SetAttr("mql", req.MQL)
		}
		if sc.horizon != 0 {
			s.db.System().AwaitWrites(sc.horizon)
		}
	}
	var ok bool
	if req.Op == OpCheckout {
		ok = s.streamCheckout(sc, req, tr) == nil
	} else {
		resp := s.safeDispatch(req, tr)
		if req.Op == OpExec {
			sc.horizon = s.db.System().WriteHorizon()
		}
		resp.TraceID = tr.ID()
		ok = s.writeReply(sc, tr, resp) == nil
	}
	tr.Finish()
	s.opNs[req.Op].ObserveSince(opStart)
	return ok
}

// traceNames are the root span names of request traces, by op code.
var traceNames = func() (names [numOps]string) {
	for op := range names {
		names[op] = "wire:" + Op(op).String()
	}
	return names
}()

// acquireSlot takes an in-flight slot, waiting at most QueueWait.
func (s *Server) acquireSlot() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	if s.cfg.QueueWait <= 0 {
		return false
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// safeDispatch runs dispatch with panic recovery: a request that blows up
// answers with an error instead of tearing the connection (or server) down.
// Nothing has been written when dispatch panics, so the conn stays
// synchronized.
func (s *Server) safeDispatch(req *Request, tr *obs.Trace) (resp *reply) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("wire: %s panic: %v", req.Op, r)
			resp = &reply{Error: fmt.Sprintf("internal error serving %s", req.Op)}
		}
	}()
	return s.dispatch(req, tr)
}

// streamChunk caps the number of molecules per checkout stream frame;
// frameBudget caps its payload bytes (molecule sizes are unbounded — CAD
// molecules can be huge — so chunking by count alone could overflow the
// wire's frame limit).
const (
	streamChunk = 32
	frameBudget = maxFrame / 2
)

// streamCheckout runs a SELECT through a molecule cursor and streams the
// qualified molecules to the client in chunks, so the server never holds the
// whole result set: the cursor produces while earlier chunks are already on
// the wire. Frames close at streamChunk molecules or frameBudget bytes,
// whichever comes first. A single molecule too large for any frame aborts
// the stream with a terminal error frame (nothing follows it, so the
// connection stays synchronized). The returned error is non-nil only when
// the connection itself failed — including a slow or dead client tripping
// the write deadline, which is what guarantees the deferred cursor Close
// (and with it the MVCC snapshot release) instead of pinning versions for
// as long as the peer stays wedged. A panic mid-assembly propagates to
// handle's recover after the deferred Close runs; the conn is torn down
// since frames may already be on the wire.
func (s *Server) streamCheckout(sc *srvConn, req *Request, tr *obs.Trace) (err error) {
	cur, err := s.db.QueryTraced(req.MQL, tr)
	if err != nil {
		return s.writeReply(sc, tr, &reply{Error: err.Error()})
	}
	defer cur.Close()
	defer func() {
		if err != nil {
			s.streamAborts.Add(1)
		}
	}()
	more := reply{OK: true, Epoch: cur.Epoch(), More: true}
	mols := make([]*core.Molecule, 0, streamChunk)
	count := 0
	for {
		m, err := cur.Next()
		if err != nil {
			return s.writeReply(sc, tr, &reply{Error: err.Error()})
		}
		if m == nil {
			break
		}
		// A full chunk leaves once the next molecule shows that the stream
		// goes on: only the cursor's end tells which frame is the last.
		if len(mols) == streamChunk {
			if ok, err := s.writeChunk(sc, tr, &more, mols); !ok {
				return err
			}
			mols = mols[:0]
		}
		mols = append(mols, m)
		count++
	}
	// The final frame names the trace: by now the whole result set has been
	// assembled and (almost entirely) written.
	final := reply{OK: true, Epoch: more.Epoch, Count: count, TraceID: tr.ID()}
	_, err = s.writeChunk(sc, tr, &final, mols)
	return err
}

// writeChunk writes mols as frames of a checkout stream, one unless the
// byte budget splits them; head is the head of the last of these frames,
// and the ones before it are plain continuation frames. Each frame's
// encoding is an "encode" span of tr and one wire_encode_ns sample. It
// reports false when the stream is over: the connection failed (the error
// says how), or a molecule that no frame can hold ended it with a terminal
// error frame.
func (s *Server) writeChunk(sc *srvConn, tr *obs.Trace, head *reply, mols []*core.Molecule) (bool, error) {
	for {
		sp, t0 := tr.Root().Child("encode"), time.Now()
		frame, n, err := sc.enc.chunk(head, mols)
		s.encodeNs.ObserveSince(t0)
		sp.End()
		if err != nil {
			return false, s.writeReply(sc, tr, &reply{Error: err.Error()})
		}
		if err := s.writeFrame(sc, frame); err != nil {
			return false, err
		}
		if mols = mols[n:]; len(mols) == 0 {
			return true, nil
		}
	}
}

// testHookDispatch, when non-nil, observes every dispatched request before
// execution; resilience tests use it to provoke handler panics.
var testHookDispatch func(*Request)

func (s *Server) dispatch(req *Request, tr *obs.Trace) *reply {
	if testHookDispatch != nil {
		testHookDispatch(req)
	}
	switch req.Op {
	case OpPing:
		return &reply{OK: true, Message: "pong"}
	case OpSlow:
		traces := s.db.Tracer().Slow()
		if req.N > 0 && len(traces) > req.N {
			traces = traces[:req.N]
		}
		return &reply{OK: true, Count: len(traces), Diag: &diagPayload{Traces: traces}}
	case OpExec:
		results, err := s.db.ExecTraced(req.MQL, tr)
		if err != nil {
			return &reply{Error: err.Error()}
		}
		resp := &reply{OK: true}
		for _, r := range results {
			resp.Count += r.Count
			resp.Inserted = append(resp.Inserted, r.Inserted...)
			resp.Molecules = append(resp.Molecules, r.Molecules...)
			if r.Message != "" {
				resp.Message = r.Message
			}
		}
		return resp
	case OpGetAtom:
		sn := s.db.System().OpenSnapshot()
		rec, err := sn.Get(addr.LogicalAddr(req.Addr))
		sn.Close()
		if err != nil {
			return &reply{Error: err.Error()}
		}
		return &reply{OK: true, Atom: rec}
	case OpStats:
		// The metrics say whether WAL checkpoints are failing
		// (wal_checkpoint_failing); Message says why, while they are.
		rep := &reply{OK: true, Diag: &diagPayload{Metrics: s.db.Metrics()}}
		if err := s.db.System().WALCheckpointErr(); err != nil {
			rep.Message = "wal checkpoint failing: " + err.Error()
		}
		return rep
	default:
		return &reply{Error: "unknown op " + req.Op.String()}
	}
}
