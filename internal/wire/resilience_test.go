package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"prima"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/workload/brepgen"
)

// blobServer builds a database whose SELECT ALL FROM blob result is far
// larger than kernel socket buffers, so a checkout stream to a client that
// stops reading reliably blocks the server's write.
func blobServer(t *testing.T, atoms, payloadBytes int, cfg ServerConfig) (*prima.DB, *Server) {
	t.Helper()
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ATOM_TYPE blob (id: IDENTIFIER, n: INTEGER, payload: CHAR_VAR)`); err != nil {
		t.Fatal(err)
	}
	wide := strings.Repeat("x", payloadBytes)
	for i := 0; i < atoms; i++ {
		if _, err := db.System().Insert("blob", map[string]atom.Value{
			"n": atom.Int(int64(i)), "payload": atom.Str(wide),
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := ServeConfig(db, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv
}

// clampRecvBuffer pins the conn's receive buffer small and disables its
// autotuning (tcp_rmem can grow to tens of MB, silently swallowing a
// "too big to buffer" stream and making blocked-writer tests racy).
func clampRecvBuffer(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMidStreamClientDeathReleasesResources kills a client in the middle of
// a large checkout stream and asserts the server releases everything the
// stream pinned: the cursor closes, the MVCC snapshot is reclaimed and no
// buffer-pool pins leak. Before the write-deadline/abort handling, the
// server goroutine stayed wedged in the write and the cursor pinned its
// snapshot epoch indefinitely.
func TestMidStreamClientDeathReleasesResources(t *testing.T) {
	// The write deadline is generous: a dead peer fails the blocked write
	// via connection reset, not the deadline (the stalled-peer variant
	// below is what exercises the deadline).
	db, srv := blobServer(t, 64, 256<<10, ServerConfig{WriteTimeout: 10 * time.Second})

	conn := dialRaw(t, srv.Addr())
	clampRecvBuffer(t, conn.Conn)
	if err := conn.WriteMsg(&Request{Op: OpCheckout, MQL: `SELECT ALL FROM blob`}); err != nil {
		t.Fatal(err)
	}
	// The ~8 MiB first frame cannot fit the clamped buffers, so the server
	// is demonstrably mid-stream, pinning its snapshot. Read one frame to
	// prove the stream is flowing, then die.
	waitFor(t, 5*time.Second, "stream to pin its snapshot", func() bool {
		return db.OpenSnapshots() > 0
	})
	var resp Response
	if err := conn.ReadMsg(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.More {
		t.Fatalf("first frame: ok=%v more=%v", resp.OK, resp.More)
	}
	conn.Close()

	waitFor(t, 5*time.Second, "snapshot release after client death", func() bool {
		return db.OpenSnapshots() == 0
	})
	if pinned := db.System().Pool().Pinned(); pinned != 0 {
		t.Fatalf("buffer pool still holds %d pins after aborted stream", pinned)
	}

	// The abort is visible on the stats surface.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if st.Counter("wire_stream_aborts") == 0 {
		t.Fatal("stream abort not counted")
	}
}

// TestStalledStreamClientTripsWriteDeadline is the wedged-not-dead variant:
// the client keeps the conn open but never reads, so only the write
// deadline can unpin the stream.
func TestStalledStreamClientTripsWriteDeadline(t *testing.T) {
	db, srv := blobServer(t, 64, 256<<10, ServerConfig{WriteTimeout: 300 * time.Millisecond})

	conn := dialRaw(t, srv.Addr())
	defer conn.Close()
	if err := conn.WriteMsg(&Request{Op: OpCheckout, MQL: `SELECT ALL FROM blob`}); err != nil {
		t.Fatal(err)
	}
	// Never read. The 16 MiB stream cannot fit any socket buffer, so the
	// server blocks writing until its deadline fires.
	waitFor(t, 5*time.Second, "write deadline to abort the stalled stream", func() bool {
		return db.OpenSnapshots() == 0
	})
	if pinned := db.System().Pool().Pinned(); pinned != 0 {
		t.Fatalf("buffer pool still holds %d pins", pinned)
	}
}

// TestIdleTimeoutReclaimsSilentConns proves a conn that never speaks is
// closed at the idle deadline.
func TestIdleTimeoutReclaimsSilentConns(t *testing.T) {
	_, srv := startServerConfig(t, ServerConfig{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	var hdr [4]byte
	if _, err := conn.Read(hdr[:]); err == nil {
		t.Fatal("idle conn not closed")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("idle conn closed only after %v", elapsed)
	}
}

// TestReadDeadlineCutsStalledFrame proves a peer that starts a frame but
// never finishes it is cut off by the read deadline even though the idle
// budget is generous.
func TestReadDeadlineCutsStalledFrame(t *testing.T) {
	_, srv := startServerConfig(t, ServerConfig{
		IdleTimeout: time.Hour,
		ReadTimeout: 150 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header promising 100 bytes that never arrive.
	if _, err := conn.Write([]byte{0, 0, 0, 100}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Fatal("stalled frame not cut off")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled frame cut only after %v (idle budget leaked into body read?)", elapsed)
	}
}

func startServerConfig(t testing.TB, cfg ServerConfig) (*prima.DB, *Server) {
	t.Helper()
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 3); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeConfig(db, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv
}

// TestAdmissionControlSheds fills the single in-flight slot with a wedged
// stream, then asserts further work is shed with a retryable error while
// diagnostics (ping, stats) still get through — and that the slot's release
// makes the server serve again.
func TestAdmissionControlSheds(t *testing.T) {
	db, srv := blobServer(t, 64, 256<<10, ServerConfig{
		MaxInFlight:  1,
		QueueWait:    -1, // shed immediately
		WriteTimeout: -1, // the wedged stream stays wedged until we kill it
	})
	if _, err := db.Exec(`CREATE ATOM_TYPE note (id: IDENTIFIER, n: INTEGER)`); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot: checkout, never read.
	hog := dialRaw(t, srv.Addr())
	if err := hog.WriteMsg(&Request{Op: OpCheckout, MQL: `SELECT ALL FROM blob`}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "hog to occupy the in-flight slot", func() bool {
		return srv.InFlight() == 1
	})

	c, err := DialConfig(srv.Addr(), ClientConfig{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec(`INSERT INTO note (n) VALUES (1)`)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded server answered %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatal("ErrOverloaded must also match ErrRemote for legacy handling")
	}
	// Nothing executed.
	res, qerr := db.ExecOne(`SELECT ALL FROM note`)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if len(res.Molecules) != 0 {
		t.Fatal("shed request executed anyway")
	}
	// Diagnostics bypass admission control.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping through overloaded server: %v", err)
	}
	st, err := c.Metrics()
	if err != nil {
		t.Fatalf("stats through overloaded server: %v", err)
	}
	if shed, inflight := st.Counter("wire_shed"), st.Gauge("wire_inflight"); shed == 0 || inflight != 1 {
		t.Fatalf("shed=%d inflight=%v, want shed>0 inflight=1", shed, inflight)
	}

	// Kill the hog; the slot frees and the same client (with retries now)
	// gets work through.
	hog.Close()
	retry, err := DialConfig(srv.Addr(), ClientConfig{MaxRetries: 20, BackoffBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer retry.Close()
	if _, err := retry.Exec(`INSERT INTO note (n) VALUES (2)`); err != nil {
		t.Fatalf("exec after slot release: %v", err)
	}
}

// TestConnCapRejectsRetryable proves the MaxConns cap turns extra conns
// away with a retryable error instead of stalling or silently dropping
// them.
func TestConnCapRejectsRetryable(t *testing.T) {
	_, srv := startServerConfig(t, ServerConfig{MaxConns: 1})
	keeper, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()
	if err := keeper.Ping(); err != nil { // ensures the conn is registered
		t.Fatal(err)
	}

	extra := dialRaw(t, srv.Addr())
	defer extra.Close()
	var resp Response
	if err := extra.ReadMsg(&resp); err != nil {
		t.Fatalf("rejected conn got no response: %v", err)
	}
	if resp.OK || !resp.Retryable || !strings.Contains(resp.Error, "connection cap") {
		t.Fatalf("rejection response = %+v", resp)
	}
	st, err := keeper.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if st.Counter("wire_conns_rejected") == 0 {
		t.Fatal("rejected conn not counted")
	}
	if n := st.Gauge("wire_conns_active"); n != 1 {
		t.Fatalf("active conns = %v, want 1", n)
	}
}

// TestAcceptLoopSurvivesTransientErrors injects transient accept failures
// (the EMFILE scenario that used to kill acceptLoop permanently) and
// proves the server keeps accepting afterwards.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(7)
	srv := ServeListener(db, plan.Listen(ln), ServerConfig{})
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})

	plan.FailAccepts(3)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after transient accept failures: %v", err)
	}
	st, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Counter("wire_accept_retries"); n < 3 {
		t.Fatalf("accept retries = %d, want >= 3", n)
	}
}

// TestPanicRecovery makes a request handler panic and asserts the blast
// radius: the request answers with an error, the connection and server
// stay up, and the panic is counted.
func TestPanicRecovery(t *testing.T) {
	testHookDispatch = func(req *Request) {
		if req.Op == OpExec && req.MQL == "PANIC" {
			panic("injected request panic")
		}
	}
	defer func() { testHookDispatch = nil }()

	_, srv := startServerConfig(t, ServerConfig{})
	c, err := DialConfig(srv.Addr(), ClientConfig{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Exec("PANIC")
	if !errors.Is(err, ErrRemote) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("panicked request answered %v, want non-retryable remote error", err)
	}
	// Same connection still works — nothing was written before the panic.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after panic: %v", err)
	}
	st, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Counter("wire_panics"); n != 1 {
		t.Fatalf("panics counted = %d, want 1", n)
	}
}

// TestCloseWaitsForHandlers hammers the server with concurrent traffic and
// closes it mid-flight: Close must return only after every handler exited
// (run under -race to verify the old conns-map race is gone).
func TestCloseWaitsForHandlers(t *testing.T) {
	_, srv := startServerConfig(t, ServerConfig{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialConfig(srv.Addr(), ClientConfig{MaxRetries: -1})
			if err != nil {
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Ping(); err != nil {
					return
				}
				if _, err := c.Checkout(`SELECT ALL FROM solid WHERE solid_no = 1`); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := srv.ActiveConns(); n != 0 {
		t.Fatalf("Close returned with %d handlers still registered", n)
	}
	close(stop)
	wg.Wait()
}

// TestShutdownDrainsActiveStream starts a checkout stream, shuts the server
// down mid-stream and asserts graceful drain: the stream runs to
// completion, new conns are refused, Shutdown returns nil.
func TestShutdownDrainsActiveStream(t *testing.T) {
	db, srv := blobServer(t, 64, 256<<10, ServerConfig{})

	conn := dialRaw(t, srv.Addr())
	defer conn.Close()
	clampRecvBuffer(t, conn.Conn)
	if err := conn.WriteMsg(&Request{Op: OpCheckout, MQL: `SELECT ALL FROM blob`}); err != nil {
		t.Fatal(err)
	}
	var first Response
	if err := conn.ReadMsg(&first); err != nil {
		t.Fatal(err)
	}
	if !first.More {
		t.Fatal("stream finished in one frame; grow the payload")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give Shutdown time to start draining, then finish reading the stream.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while a stream was in flight", err)
	default:
	}
	total := len(first.Molecules)
	resp := first
	for resp.More {
		var next Response
		if err := conn.ReadMsg(&next); err != nil {
			t.Fatalf("stream cut during drain: %v", err)
		}
		if !next.OK {
			t.Fatalf("stream error during drain: %s", next.Error)
		}
		total += len(next.Molecules)
		resp = next
	}
	if total != 64 {
		t.Fatalf("drained stream delivered %d molecules, want 64", total)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatal("snapshot leaked through drain")
	}
	// The listener is gone.
	if c, err := net.DialTimeout("tcp", srv.Addr(), 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestShutdownDeadlineForceCloses wedges a stream (client never reads) and
// gives Shutdown a short deadline: it must force-close the conn, report the
// deadline error, and still leave no snapshot behind.
func TestShutdownDeadlineForceCloses(t *testing.T) {
	db, srv := blobServer(t, 64, 256<<10, ServerConfig{WriteTimeout: -1})

	conn := dialRaw(t, srv.Addr())
	defer conn.Close()
	if err := conn.WriteMsg(&Request{Op: OpCheckout, MQL: `SELECT ALL FROM blob`}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "stream to pin its snapshot", func() bool {
		return db.OpenSnapshots() > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v despite its deadline", elapsed)
	}
	// Handlers are gone (Shutdown waits even on the force path), so the
	// stream's snapshot is released.
	if db.OpenSnapshots() != 0 {
		t.Fatal("snapshot leaked through forced shutdown")
	}
}

// TestClientReconnectAndRetry cuts the client's conn deterministically and
// asserts: idempotent ops retry through a reconnect, non-idempotent ops
// surface the failure instead, and the counters record both.
func TestClientReconnectAndRetry(t *testing.T) {
	_, srv := startServerConfig(t, ServerConfig{})
	plan := NewFaultPlan(11)
	c, err := DialConfig(srv.Addr(), ClientConfig{
		BackoffBase: time.Millisecond,
		Dialer: func(address string) (net.Conn, error) {
			conn, err := net.Dial("tcp", address)
			if err != nil {
				return nil, err
			}
			return plan.Conn(conn), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Idempotent op: the reset is absorbed by reconnect + retry.
	plan.FailOps(1)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping through injected reset: %v", err)
	}
	retries, reconnects := c.Retries()
	if retries == 0 || reconnects == 0 {
		t.Fatalf("retries=%d reconnects=%d after injected reset, want both > 0", retries, reconnects)
	}

	// Non-idempotent op: the reset surfaces; the client must NOT blind-retry.
	plan.FailOps(1)
	trips := c.RoundTrips()
	_, err = c.Exec(`INSERT INTO solid (solid_no, description) VALUES (77, 'lost')`)
	if err == nil {
		t.Fatal("exec through a dead conn reported success")
	}
	if errors.Is(err, ErrRemote) {
		t.Fatalf("transport failure misclassified as remote error: %v", err)
	}
	if got := c.RoundTrips() - trips; got != 1 {
		t.Fatalf("non-idempotent op attempted %d times, want exactly 1", got)
	}

	// The next op transparently reconnects.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after failed exec: %v", err)
	}
	// And the checkout path retries too (stream reads are idempotent).
	plan.FailOps(1)
	mols, err := c.Checkout(`SELECT ALL FROM solid WHERE solid_no = 1`)
	if err != nil {
		t.Fatalf("checkout through injected reset: %v", err)
	}
	if len(mols) != 1 {
		t.Fatalf("checkout = %d molecules, want 1", len(mols))
	}
}

// TestStageModifyValidation covers the hardened staging path: unknown and
// mistyped atoms are refused loudly, and the staged statement renders the
// MODIFY target through the addr package instead of hand-rolled shifts.
func TestStageModifyValidation(t *testing.T) {
	_, srv := startServerConfig(t, ServerConfig{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.StageModify("face", 12345, "square_dim", "1.0"); err == nil {
		t.Fatal("staging an atom that was never checked out succeeded")
	}
	mols, err := c.Checkout(`SELECT ALL FROM solid WHERE solid_no = 1`)
	if err != nil {
		t.Fatal(err)
	}
	a := mols[0].Atoms[0]
	if err := c.StageModify("face", a.Addr, "square_dim", "1.0"); err == nil {
		t.Fatal("staging with the wrong atom type succeeded")
	}
	if err := c.StageModify("solid", a.Addr, "description", "'ok'"); err != nil {
		t.Fatalf("staging a buffered atom: %v", err)
	}
	la := addr.LogicalAddr(a.Addr)
	want := fmt.Sprintf("@%d.%d", la.Type(), la.Seq())
	if p := c.Pending(); len(p) != 1 || !strings.Contains(p[0], want) {
		t.Fatalf("staged statement %q does not target %s", p, want)
	}
	if resp, err := c.Checkin(); err != nil || resp.Count != 1 {
		t.Fatalf("checkin of validated staging: resp=%+v err=%v", resp, err)
	}
}

// TestShutdownIdempotent double-closes through both paths.
func TestShutdownIdempotent(t *testing.T) {
	_, srv := startServerConfig(t, ServerConfig{})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
