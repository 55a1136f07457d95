package wire

import (
	"fmt"
	"testing"

	"prima"
	"prima/internal/workload/brepgen"
)

// benchServer starts an in-memory server (WAL optional) with a minimal
// schema, without the brepgen scene the functional tests use: the wire
// round-trip benchmarks measure protocol cost, not scene assembly.
func benchServer(b *testing.B, wal bool) *Server {
	b.Helper()
	db, err := prima.Open(prima.Config{WAL: wal})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ATOM_TYPE item (item_id: IDENTIFIER, n: INTEGER)`); err != nil {
		b.Fatal(err)
	}
	srv, err := Serve(db, "")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv
}

// benchWirePing measures the smallest possible round trip: one request
// frame, one response frame, no MQL — the floor for every wire op, and the
// gate for per-op instrumentation overhead in serveRequest.
func benchWirePing(b *testing.B) {
	srv := benchServer(b, false)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireExecInsert measures a full DML round trip — parse, plan, apply,
// WAL append — over the wire, one insert per op.
func benchWireExecInsert(b *testing.B) {
	srv := benchServer(b, true)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO item (n) VALUES (%d)", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireExecSelect measures a full read round trip — parse or plan-cache
// hit, assemble, batched decode — over the wire. It walks every
// trace-instrumented code path (executeScript, runSelect, getBatch) with
// tracing off, so it is the gate for the disabled-tracing overhead: each
// instrumentation site must cost one nil check.
func benchWireExecSelect(b *testing.B) {
	srv := benchServer(b, false)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`INSERT INTO item (n) VALUES (1), (2), (3), (4), (5), (6), (7), (8)`); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("SELECT ALL FROM item WHERE n > 4"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireCheckoutCube measures a point checkout of one brepgen cube, 27
// atoms of four types with nested values: the gate for per-atom cost on the
// wire (encode, bytes, client-side rendering), which the one-atom molecules
// of exec_select barely touch.
func benchWireCheckoutCube(b *testing.B) {
	_, srv := startServer(b)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mols, err := c.Checkout(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`)
		if err != nil {
			b.Fatal(err)
		}
		if len(mols) != 1 || len(mols[0].Atoms) != brepgen.CubeAtoms {
			b.Fatalf("checkout = %d molecules", len(mols))
		}
	}
}

func BenchmarkWireRoundTrip(b *testing.B) {
	b.Run("ping", benchWirePing)
	b.Run("exec_insert_wal", benchWireExecInsert)
	b.Run("exec_select", benchWireExecSelect)
	b.Run("checkout_cube", benchWireCheckoutCube)
}
