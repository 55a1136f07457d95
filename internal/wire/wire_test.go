package wire

import (
	"net"
	"strings"
	"testing"

	"prima"
	"prima/internal/workload/brepgen"
)

// sceneDB opens an in-memory database holding a brepgen scene of three cubes.
func sceneDB(t testing.TB) *prima.DB {
	t.Helper()
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 3); err != nil {
		t.Fatal(err)
	}
	return db
}

func startServer(t testing.TB) (*prima.DB, *Server) {
	t.Helper()
	db := sceneDB(t)
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv
}

func TestPingExec(t *testing.T) {
	_, srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	resp, err := c.Exec(`INSERT INTO solid (solid_no, description) VALUES (99, 'remote')`)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(resp.Inserted) != 1 {
		t.Fatalf("Inserted = %v", resp.Inserted)
	}
	// Errors surface.
	if _, err := c.Exec(`SELECT ALL FROM ghost`); err == nil {
		t.Fatal("remote error not surfaced")
	}
}

func TestCheckoutObjectBufferCheckin(t *testing.T) {
	db, srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mols, err := c.Checkout(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`)
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if len(mols) != 1 || len(mols[0].Atoms) != brepgen.CubeAtoms {
		t.Fatalf("checkout = %d molecules / %d atoms", len(mols), len(mols[0].Atoms))
	}
	after := c.RoundTrips()
	if after != 1 {
		t.Fatalf("checkout cost %d round trips, want 1 (set-oriented)", after)
	}

	// All atoms are locally available without communication.
	for _, a := range mols[0].Atoms {
		if _, ok := c.Local(a.Addr); !ok {
			t.Fatalf("atom %d not in object buffer", a.Addr)
		}
	}
	if c.RoundTrips() != after {
		t.Fatal("local reads caused round trips")
	}

	// Stage a local change on a face atom and check it in.
	var face AtomJSON
	for _, a := range mols[0].Atoms {
		if a.Type == "face" {
			face = a
			break
		}
	}
	if err := c.StageModify("face", face.Addr, "square_dim", "123.5"); err != nil {
		t.Fatalf("StageModify: %v", err)
	}
	if len(c.Pending()) != 1 {
		t.Fatalf("pending = %v", c.Pending())
	}
	resp, err := c.Checkin()
	if err != nil {
		t.Fatalf("Checkin: %v", err)
	}
	if resp.Count != 1 {
		t.Fatalf("checkin modified %d atoms", resp.Count)
	}

	// The server sees the change.
	res, err := db.ExecOne(`SELECT ALL FROM face WHERE square_dim = 123.5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Molecules) != 1 {
		t.Fatalf("server-side visibility: %d", len(res.Molecules))
	}

	// Checkin with nothing staged is a no-op without a round trip error.
	if _, err := c.Checkin(); err != nil {
		t.Fatalf("empty Checkin: %v", err)
	}
}

func TestSetOrientedVsAtomAtATime(t *testing.T) {
	_, srv := startServer(t)

	// Set-oriented: one round trip for the whole molecule.
	c1, _ := Dial(srv.Addr())
	defer c1.Close()
	mols, err := c1.Checkout(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1`)
	if err != nil {
		t.Fatal(err)
	}
	setTrips := c1.RoundTrips()

	// Atom-at-a-time: one round trip per atom.
	c2, _ := Dial(srv.Addr())
	defer c2.Close()
	for _, a := range mols[0].Atoms {
		if _, err := c2.FetchAtom(a.Addr); err != nil {
			t.Fatalf("FetchAtom: %v", err)
		}
	}
	chattyTrips := c2.RoundTrips()

	if setTrips != 1 || chattyTrips != brepgen.CubeAtoms {
		t.Fatalf("round trips: set=%d chatty=%d", setTrips, chattyTrips)
	}
	if chattyTrips < 20*setTrips {
		t.Fatalf("expected ≫ communication reduction, got %dx", chattyTrips/setTrips)
	}
}

func TestRenderValueLiterals(t *testing.T) {
	_, srv := startServer(t)
	c, _ := Dial(srv.Addr())
	defer c.Close()
	mols, err := c.Checkout(`SELECT ALL FROM solid WHERE solid_no = 1`)
	if err != nil {
		t.Fatal(err)
	}
	v := mols[0].Atoms[0].Values
	if v["solid_no"] != "1" {
		t.Fatalf("solid_no literal = %q", v["solid_no"])
	}
	if !strings.HasPrefix(v["description"], "'") {
		t.Fatalf("description literal = %q", v["description"])
	}
	if !strings.HasPrefix(v["brep"], "@") {
		t.Fatalf("brep ref literal = %q", v["brep"])
	}
}

// rawConn speaks the protocol frame by frame, for tests that count frames or
// stop reading in the middle of a stream; the Client hides both.
type rawConn struct {
	net.Conn
	dec decoder
}

func dialRaw(t *testing.T, address string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", address)
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{Conn: conn}
}

func (c *rawConn) WriteMsg(req *Request) error {
	frame, err := appendRequest(nil, req)
	if err != nil {
		return err
	}
	_, err = c.Write(frame)
	return err
}

// ReadMsg reads one response frame into resp, whose fields it overwrites.
func (c *rawConn) ReadMsg(resp *Response) error {
	body, err := readFrame(c, nil)
	if err != nil {
		return err
	}
	*resp = Response{}
	return c.dec.response(body, resp)
}
