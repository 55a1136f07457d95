package wire

import (
	"strings"
	"testing"

	"prima"
	"prima/internal/access/atom"
	"prima/internal/workload/brepgen"
)

// bigServer starts a server whose scene holds more molecules than one
// stream frame carries.
func bigServer(t *testing.T, n int) *Server {
	t.Helper()
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), n); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv
}

// TestCheckoutStreamsInChunks speaks the raw protocol and verifies the
// server really chunks a large result set instead of buffering it whole.
func TestCheckoutStreamsInChunks(t *testing.T) {
	n := streamChunk + streamChunk/2 // forces at least two frames
	srv := bigServer(t, n)

	conn := dialRaw(t, srv.Addr())
	defer conn.Close()
	if err := conn.WriteMsg(&Request{Op: OpCheckout, MQL: `SELECT ALL FROM brep-face-edge-point`}); err != nil {
		t.Fatal(err)
	}

	frames, total := 0, 0
	for {
		var resp Response
		if err := conn.ReadMsg(&resp); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
		total += len(resp.Molecules)
		if !resp.OK {
			t.Fatalf("frame %d: remote error %s", frames, resp.Error)
		}
		if !resp.More {
			if resp.Count != n {
				t.Fatalf("final frame count = %d, want %d", resp.Count, n)
			}
			break
		}
		if len(resp.Molecules) != streamChunk {
			t.Fatalf("continuation frame carries %d molecules, want %d", len(resp.Molecules), streamChunk)
		}
	}
	if frames < 2 {
		t.Fatalf("result of %d molecules arrived in %d frame(s); expected a chunked stream", n, frames)
	}
	if total != n {
		t.Fatalf("stream delivered %d molecules, want %d", total, n)
	}
}

// TestOversizedChunkSplitsBySize builds molecules so large that a
// 32-molecule chunk would exceed the 16 MiB frame limit; the server's
// size-aware packing must close frames at the byte budget instead of
// tearing the connection down, and the client must still reassemble the
// full set.
func TestOversizedChunkSplitsBySize(t *testing.T) {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ATOM_TYPE blob (id: IDENTIFIER, n: INTEGER, payload: CHAR_VAR)`); err != nil {
		t.Fatal(err)
	}
	wide := strings.Repeat("x", 700<<10) // ~22 MiB of JSON per 32-molecule chunk
	for i := 0; i < streamChunk; i++ {
		if _, err := db.System().Insert("blob", map[string]atom.Value{
			"n": atom.Int(int64(i)), "payload": atom.Str(wide),
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mols, err := c.Checkout(`SELECT ALL FROM blob`)
	if err != nil {
		t.Fatalf("Checkout of oversized chunk: %v", err)
	}
	if len(mols) != streamChunk {
		t.Fatalf("reassembled %d molecules, want %d", len(mols), streamChunk)
	}
	if got := len(mols[streamChunk-1].Atoms[0].Values["payload"]); got < 700<<10 {
		t.Fatalf("last payload = %d bytes", got)
	}
	// The connection must still be usable.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after oversized stream: %v", err)
	}
}

// TestOversizedMoleculeAbortsStreamCleanly puts one molecule too large for
// any wire frame among normal ones: the stream must end with a terminal
// error frame and nothing after it, so the connection stays synchronized
// for subsequent requests.
func TestOversizedMoleculeAbortsStreamCleanly(t *testing.T) {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ATOM_TYPE blob (id: IDENTIFIER, n: INTEGER, payload: CHAR_VAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.System().Insert("blob", map[string]atom.Value{
		"n": atom.Int(0), "payload": atom.Str(strings.Repeat("x", 17<<20)),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if _, err := db.System().Insert("blob", map[string]atom.Value{"n": atom.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Checkout(`SELECT ALL FROM blob`); err == nil {
		t.Fatal("oversized molecule did not surface as a checkout error")
	}
	// No leftover frames on the socket: the next request must get its own
	// response, not a stale molecule frame.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after aborted stream: %v", err)
	}
	mols, err := c.Checkout(`SELECT n FROM blob WHERE n = 3`)
	if err != nil {
		t.Fatalf("Checkout after aborted stream: %v", err)
	}
	if len(mols) != 1 {
		t.Fatalf("follow-up checkout = %d molecules, want 1", len(mols))
	}
}

// TestClientReassemblesStream checks the client-facing contract: one logical
// round trip, complete result, populated object buffer.
func TestClientReassemblesStream(t *testing.T) {
	n := 2*streamChunk + 3
	srv := bigServer(t, n)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mols, err := c.Checkout(`SELECT ALL FROM brep-face-edge-point`)
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if len(mols) != n {
		t.Fatalf("checkout = %d molecules, want %d", len(mols), n)
	}
	if c.RoundTrips() != 1 {
		t.Fatalf("round trips = %d, want 1", c.RoundTrips())
	}
	for _, a := range mols[n-1].Atoms {
		if _, ok := c.Local(a.Addr); !ok {
			t.Fatalf("atom %d of last molecule missing from object buffer", a.Addr)
		}
	}
	// Errors still surface on the same connection afterwards.
	if _, err := c.Checkout(`SELECT ALL FROM ghost`); err == nil {
		t.Fatal("remote error not surfaced")
	}
	// And the connection stays usable.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after error: %v", err)
	}
}

// TestOversizedMoleculeEndsStreamWithOneErrorFrame watches the same abort
// frame by frame: whatever continuation frames precede it, the stream ends
// with exactly one terminal error frame, and the next frame on the
// connection answers the next request.
func TestOversizedMoleculeEndsStreamWithOneErrorFrame(t *testing.T) {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ATOM_TYPE blob (id: IDENTIFIER, n: INTEGER, payload: CHAR_VAR)`); err != nil {
		t.Fatal(err)
	}
	// More than one chunk of small molecules, then the one no frame holds.
	for i := 0; i <= streamChunk+3; i++ {
		values := map[string]atom.Value{"n": atom.Int(int64(i))}
		if i == streamChunk+3 {
			values["payload"] = atom.Str(strings.Repeat("x", 17<<20))
		}
		if _, err := db.System().Insert("blob", values); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	conn := dialRaw(t, srv.Addr())
	defer conn.Close()
	if err := conn.WriteMsg(&Request{Op: OpCheckout, MQL: `SELECT ALL FROM blob`}); err != nil {
		t.Fatal(err)
	}
	frames := 0
	var resp Response
	for {
		if err := conn.ReadMsg(&resp); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
		if !resp.More {
			break
		}
		if !resp.OK || len(resp.Molecules) != streamChunk {
			t.Fatalf("continuation frame %d: ok=%v with %d molecules", frames, resp.OK, len(resp.Molecules))
		}
	}
	if frames != 2 {
		t.Fatalf("stream of %d frames, want one full chunk and the terminal frame", frames)
	}
	if resp.OK || !strings.Contains(resp.Error, ErrFrameTooBig.Error()) || len(resp.Molecules) != 0 {
		t.Fatalf("terminal frame: ok=%v error=%q molecules=%d", resp.OK, resp.Error, len(resp.Molecules))
	}
	if err := conn.WriteMsg(&Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := conn.ReadMsg(&resp); err != nil || !resp.OK || resp.Message != "pong" {
		t.Fatalf("frame after the terminal one: %+v, %v", resp, err)
	}
}
