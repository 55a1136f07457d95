package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"prima/internal/access/addr"
	"prima/internal/obs"
)

// Client retry defaults; a ClientConfig field of 0 selects these, a
// negative value disables the knob.
const (
	DefaultMaxRetries  = 4
	DefaultBackoffBase = 5 * time.Millisecond
	DefaultBackoffMax  = 500 * time.Millisecond
	DefaultDialTimeout = 5 * time.Second
)

// ClientConfig tunes the client's resilience behavior.
type ClientConfig struct {
	// MaxRetries is how many times a retryable failure is retried on top
	// of the first attempt (0 = default, negative = never retry).
	MaxRetries int
	// BackoffBase is the first retry delay; it doubles per attempt up to
	// BackoffMax, with jitter so a fleet of shed clients does not return
	// in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// OpTimeout bounds each frame read/write of one attempt (0 = no
	// deadline — checkout streams can legitimately run long).
	OpTimeout time.Duration
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// Dialer overrides connection establishment — the injection point for
	// conn-level faults (FaultPlan.Conn) and custom transports.
	Dialer func(address string) (net.Conn, error)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	return c
}

// Client is a workstation-side connection to a PRIMA server with an object
// buffer for checked-out molecules. It survives an unreliable link: a dead
// connection is re-established with exponential backoff, idempotent
// operations (ping, stats, checkout, atom fetch) are retried transparently,
// and operations the server sheds under load are retried too — a shed
// request provably executed nothing, so even Exec and Checkin resend after
// one. A transport failure during Exec/Checkin is NOT retried: the outcome
// on the server is unknown and replaying DML could double-apply it.
type Client struct {
	mu         sync.Mutex
	conn       net.Conn
	address    string
	cfg        ClientConfig
	rng        *rand.Rand
	roundTrips int
	retries    uint64 // retried attempts (any reason)
	reconnects uint64 // successful re-dials after a lost conn

	// Frame buffers and the response decoder of the current connection.
	wbuf, rbuf []byte
	dec        decoder

	// Object buffer: checked-out atoms by address, as record images, plus
	// recorded local changes awaiting checkin.
	buffer  map[uint64]buffered
	pending []string // MQL statements to run at checkin
}

// Dial connects to a PRIMA server with default resilience configuration.
func Dial(address string) (*Client, error) {
	return DialConfig(address, ClientConfig{})
}

// DialConfig connects with explicit retry/backoff knobs.
func DialConfig(address string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{
		address: address,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		buffer:  map[uint64]buffered{},
		dec:     decoder{idents: map[string]string{}},
	}
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	c.conn = conn
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.cfg.Dialer != nil {
		return c.cfg.Dialer(c.address)
	}
	return net.DialTimeout("tcp", c.address, c.cfg.DialTimeout)
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// RoundTrips returns how many request/response cycles this client has
// performed — the communication-overhead measure of experiment A6.
func (c *Client) RoundTrips() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrips
}

// Retries returns how many attempts were retried (after shed responses or
// transport failures) and how many times the connection was re-established.
func (c *Client) Retries() (retries, reconnects uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries, c.reconnects
}

// ensureConn re-establishes the connection if a previous attempt lost it.
// The server starts a new type dictionary on a new connection.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.dial()
	if err != nil {
		return fmt.Errorf("wire: redial: %w", err)
	}
	c.conn = conn
	c.dec.reset()
	c.reconnects++
	return nil
}

// dropConn discards a connection whose state is unknown.
func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// armDeadline applies the per-attempt frame deadline.
func (c *Client) armDeadline() {
	if c.cfg.OpTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
	}
}

// backoffSleep sleeps the exponential-backoff delay for the given retry
// (1-based) with half jitter: d/2 + rand(d/2).
func (c *Client) backoffSleep(retry int) {
	d := c.cfg.BackoffBase << (retry - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// do runs one request with the retry policy. Idempotent requests retry on
// any failure; non-idempotent ones only when the server answered with a
// retryable shed (which guarantees nothing executed). stream collects
// continuation frames when non-nil (checkout).
func (c *Client) do(req *Request, idempotent bool) (*Response, []MoleculeJSON, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries++
			// Holding mu during backoff is fine: the client is a session
			// handle, ops on it are serialized.
			c.backoffSleep(attempt)
		}
		if err := c.ensureConn(); err != nil {
			lastErr = err
			if attempt >= c.cfg.MaxRetries {
				return nil, nil, lastErr
			}
			continue
		}
		resp, mols, err := c.attempt(req)
		if err == nil {
			return resp, mols, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, ErrOverloaded):
			// Server answered: nothing executed, conn intact, retry —
			// regardless of idempotency.
		case errors.Is(err, ErrRemote):
			// Definitive remote failure (bad MQL, missing atom): the
			// request executed and failed; retrying would repeat it.
			return resp, nil, err
		default:
			// Transport failure: connection state unknown.
			c.dropConn()
			if !idempotent {
				return nil, nil, fmt.Errorf("wire: connection failed mid-request, outcome unknown (not retrying non-idempotent op): %w", err)
			}
		}
		if attempt >= c.cfg.MaxRetries {
			return nil, nil, lastErr
		}
	}
}

// attempt performs one round trip (plus stream reassembly for checkout) on
// the current connection. Any error that is not a server's answer (ErrRemote)
// leaves the connection in an unknown state.
func (c *Client) attempt(req *Request) (*Response, []MoleculeJSON, error) {
	c.roundTrips++
	c.armDeadline()
	frame, err := appendRequest(c.wbuf, req)
	if err != nil {
		return nil, nil, err
	}
	if c.wbuf = frame[:0]; cap(frame) > keepBuf {
		c.wbuf = nil
	}
	if _, err := c.conn.Write(frame); err != nil {
		return nil, nil, err
	}
	resp := &Response{}
	c.dec.held, c.dec.hold = c.dec.held[:0], req.Op == OpCheckout
	for {
		c.armDeadline()
		body, err := readFrame(c.conn, c.rbuf)
		if c.rbuf = body; cap(body) > keepBuf {
			c.rbuf = nil
		}
		if err == nil {
			err = c.dec.response(body, resp)
		}
		if err != nil {
			return nil, nil, err
		}
		if err := resp.err(); err != nil {
			return resp, nil, err
		}
		if resp.More && req.Op == OpCheckout {
			continue
		}
		// A checkout arrived whole: its atoms replace what the buffer held of them.
		for _, h := range c.dec.held {
			c.buffer[h.addr] = h.buffered
		}
		return resp, resp.Molecules, nil
	}
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	_, _, err := c.do(&Request{Op: OpPing}, true)
	return err
}

// Exec runs an MQL script on the server. It is not retried after a
// transport failure — the script may or may not have executed — but a shed
// response (nothing executed) is.
func (c *Client) Exec(src string) (*Response, error) {
	resp, _, err := c.do(&Request{Op: OpExec, MQL: src}, false)
	return resp, err
}

// Checkout runs a SELECT and loads the resulting molecules into the local
// object buffer with a single round trip ("large buffer sizes may help to
// perform most of the DBMS work locally, after the required molecules are
// transferred to an 'object buffer'"). The server streams the result in
// chunked frames; the stream is reassembled here transparently, so large
// sets arrive without a server-side buffer and still cost one round trip.
// A stream cut mid-way by a transport fault is retried from the start
// (reads are idempotent); partially received molecules are discarded.
func (c *Client) Checkout(query string) ([]MoleculeJSON, error) {
	mols, _, err := c.CheckoutTraced(query)
	return mols, err
}

// CheckoutTraced is Checkout returning the server-side trace ID of the
// request as well (empty when the server did not trace it). The ID keys the
// server's retained span trees: quote it to Slow or /debug/slow to see where
// the request's time went.
func (c *Client) CheckoutTraced(query string) ([]MoleculeJSON, string, error) {
	resp, mols, err := c.do(&Request{Op: OpCheckout, MQL: query}, true)
	if err != nil {
		return nil, "", err
	}
	return mols, resp.TraceID, nil
}

// Slow fetches the server's retained slow-query traces, newest first, in one
// idempotent round trip. n > 0 bounds the count; 0 returns the whole ring.
func (c *Client) Slow(n int) ([]*obs.TraceSnapshot, error) {
	resp, _, err := c.do(&Request{Op: OpSlow, N: n}, true)
	if err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// Local returns a buffered atom without any server communication: its
// checked-out image rendered for this call, under the literals staged since.
func (c *Client) Local(addr uint64) (AtomJSON, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buffer[addr]
	if !ok {
		return AtomJSON{}, false
	}
	return c.dec.rendered(addr, b), true
}

// Metrics fetches the server's full metrics snapshot — every counter, gauge
// and per-stage latency histogram — in one idempotent round trip.
func (c *Client) Metrics() (*obs.MetricsSnapshot, error) {
	resp, _, err := c.do(&Request{Op: OpStats}, true)
	if err != nil {
		return nil, err
	}
	if resp.Metrics == nil {
		return nil, fmt.Errorf("%w: stats response without metrics payload", ErrRemote)
	}
	return resp.Metrics, nil
}

// FetchAtom retrieves one atom from the server — the chatty alternative to
// Checkout used as the baseline in experiment A6.
func (c *Client) FetchAtom(a uint64) (AtomJSON, error) {
	resp, _, err := c.do(&Request{Op: OpGetAtom, Addr: a}, true)
	if err != nil {
		return AtomJSON{}, err
	}
	if resp.Atom == nil {
		return AtomJSON{}, fmt.Errorf("%w: getatom response without an atom", ErrRemote)
	}
	return *resp.Atom, nil
}

// StageModify records a local modification of a buffered atom; it is sent
// to the server at Checkin time. The target atom must be in the object
// buffer (a prior Checkout put it there): staging against an address that
// was never checked out is almost certainly a caller bug, and silently
// guessing a MODIFY target would corrupt somebody else's atom.
func (c *Client) StageModify(typeName string, a uint64, attr, valueLiteral string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buffer[a]
	if !ok {
		return fmt.Errorf("wire: StageModify %s %v: atom not in object buffer (check it out first)", typeName, addr.LogicalAddr(a))
	}
	if b.t.name != typeName {
		return fmt.Errorf("wire: StageModify: buffered atom %v is a %s, not a %s", addr.LogicalAddr(a), b.t.name, typeName)
	}
	// The type dictionary of the connection the atom arrived on named the
	// type's IDENTIFIER attribute.
	ident := c.dec.idents[typeName]
	if ident == "" {
		return fmt.Errorf("wire: StageModify: server announced no IDENTIFIER attribute for %s", typeName)
	}
	if b.staged == nil {
		b.staged = map[string]string{}
		c.buffer[a] = b
	}
	b.staged[attr] = valueLiteral
	// Address literal keys the MODIFY to exactly this atom; the addr
	// package owns the type/sequence layout of logical addresses.
	la := addr.LogicalAddr(a)
	c.pending = append(c.pending,
		fmt.Sprintf("MODIFY %s SET %s = %s WHERE %s = @%d.%d",
			typeName, attr, valueLiteral, ident, la.Type(), la.Seq()))
	return nil
}

// Pending returns the staged checkin statements.
func (c *Client) Pending() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.pending...)
}

// Checkin sends all staged modifications in one round trip and clears the
// buffer ("modified or newly created molecules are moved back to PRIMA at
// commit time"). Like Exec, a checkin whose connection died mid-request is
// not retried; the staged statements are re-queued so the caller can
// Checkin again once the outcome is known.
func (c *Client) Checkin() (*Response, error) {
	c.mu.Lock()
	stmts := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(stmts) == 0 {
		return &Response{OK: true, Message: "nothing to check in"}, nil
	}
	src := ""
	for _, s := range stmts {
		src += s + ";\n"
	}
	resp, _, err := c.do(&Request{Op: OpExec, MQL: src}, false)
	if err != nil && !errors.Is(err, ErrRemote) {
		// Transport failure with unknown outcome: keep the statements
		// staged for an explicit re-checkin decision.
		c.mu.Lock()
		c.pending = append(stmts, c.pending...)
		c.mu.Unlock()
	}
	return resp, err
}
