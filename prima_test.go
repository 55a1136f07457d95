package prima

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/mql"
	"prima/internal/txn"
	"prima/internal/workload/brepgen"
)

// withProcs runs the rest of a test or benchmark at GOMAXPROCS n, the
// platform input a cursor derives its assembly width from.
func withProcs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func openMem(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestEndToEndQuickstart(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatalf("DDL: %v", err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 3); err != nil {
		t.Fatalf("scene: %v", err)
	}

	res, err := db.ExecOne(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Molecules) != 1 || res.Molecules[0].Size() != brepgen.CubeAtoms {
		t.Fatalf("result = %d molecules", len(res.Molecules))
	}
	// The rendered molecule mentions every component type.
	s := res.Molecules[0].String()
	for _, want := range []string{"brep", "face", "edge", "point"} {
		if !contains(s, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCursorAndParallelAgree(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 10); err != nil {
		t.Fatal(err)
	}
	q := `SELECT ALL FROM brep-face WHERE brep_no >= 3`

	withProcs(t, 1)
	cur, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	seq, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	pcur, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer pcur.Close()
	par, err := pcur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 8 || len(par) != len(seq) {
		t.Fatalf("seq=%d par=%d, want 8", len(seq), len(par))
	}
	// Query rejects non-SELECT.
	if _, err := db.Query(`INSERT INTO solid (solid_no) VALUES (1)`); err == nil {
		t.Fatal("Query accepted non-SELECT")
	}
}

func TestTransactionsEndToEnd(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO solid (solid_no, description) VALUES (1, 'tx')`); err != nil {
		t.Fatal(err)
	}
	// Nested child inserts and aborts: selective rollback.
	child, err := tx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.Exec(`INSERT INTO solid (solid_no, description) VALUES (2, 'child')`); err != nil {
		t.Fatal(err)
	}
	if err := child.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	res, err := db.ExecOne(`SELECT ALL FROM solid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Molecules) != 1 {
		t.Fatalf("%d solids after selective rollback, want 1", len(res.Molecules))
	}

	// Top-level abort removes everything.
	tx2 := db.Begin()
	if _, err := tx2.Exec(`INSERT INTO solid (solid_no) VALUES (10), (11)`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	res, _ = db.ExecOne(`SELECT ALL FROM solid`)
	if len(res.Molecules) != 1 {
		t.Fatalf("%d solids after abort, want 1", len(res.Molecules))
	}
}

// TestAutocommitRespectsTransactionLocks: Exec, ExecOne and ExecTraced write
// in the manager's autocommit scope, which refuses an atom a transaction
// holds and admits it again once the transaction finished.
func TestAutocommitRespectsTransactionLocks(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO solid (solid_no, description) VALUES (1, 'base')`); err != nil {
		t.Fatal(err)
	}
	const modify = `MODIFY solid SET description = 'auto' WHERE solid_no = 1`
	tx := db.Begin()
	if _, err := tx.Exec(`MODIFY solid SET description = 'tx' WHERE solid_no = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(modify); !errors.Is(err, txn.ErrLockConflict) {
		t.Fatalf("Exec on a locked atom = %v, want ErrLockConflict", err)
	}
	if _, err := db.ExecOne(modify); !errors.Is(err, txn.ErrLockConflict) {
		t.Fatalf("ExecOne on a locked atom = %v, want ErrLockConflict", err)
	}
	if _, err := db.ExecTraced(modify, db.Tracer().BeginForced("modify")); !errors.Is(err, txn.ErrLockConflict) {
		t.Fatalf("ExecTraced on a locked atom = %v, want ErrLockConflict", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(modify); err != nil {
		t.Fatalf("Exec after the transaction aborted: %v", err)
	}
	if m := db.Metrics(); m.Counter("txn_lock_conflicts_total") != 3 || m.Counter("txn_aborts_total") != 1 {
		t.Fatalf("txn metrics: %d conflicts, %d aborts; want 3, 1", m.Counter("txn_lock_conflicts_total"), m.Counter("txn_aborts_total"))
	}
}

// sceneState renders every atom of the Fig. 2.3 types with its values, and
// fails unless every reference is symmetric: its target exists and lists the
// atom in the back attribute.
func sceneState(t *testing.T, db *DB) string {
	t.Helper()
	sys := db.System()
	var b strings.Builder
	for _, typ := range []string{"solid", "brep", "face", "edge", "point"} {
		as, err := sys.ScanAddrs(typ)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			at, err := sys.Get(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&b, a, at.Values)
			for _, i := range at.Type.RefAttrs() {
				_, back, _ := at.Type.Attrs[i].Type.RefTarget()
				for target := range at.Values[i].AllRefs() {
					partner, err := sys.Get(target, nil)
					if err != nil {
						t.Fatalf("%s %v.%s -> %v: %v", typ, a, at.Type.Attrs[i].Name, target, err)
					}
					if v, _ := partner.Value(back); !v.ContainsRef(a) {
						t.Fatalf("%s %v.%s -> %v, whose %s is %v", typ, a, at.Type.Attrs[i].Name, target, back, v)
					}
				}
			}
		}
	}
	return b.String()
}

// TestStatementsAreAtomic: a DELETE or MODIFY statement is one atom set, so
// a lock conflict on any of its atoms, or on a partner, refuses all of it.
// A transaction holds the last face of a five-cube scene; a DELETE of every
// cube and a MODIFY of every face fail and change nothing. With the first
// cube's sixth face held too, deleting that cube's brep fails and leaves
// every face.brep/brep.faces pair symmetric. Once the transaction aborted,
// the statements run whole.
func TestStatementsAreAtomic(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	cubes, err := brepgen.BuildScene(db.Engine(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	lock := func(f addr.LogicalAddr) {
		t.Helper()
		if _, err := tx.Exec(fmt.Sprintf("MODIFY face SET square_dim = 1.5 WHERE face_id = @%d.%d", f.Type(), f.Seq())); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(stmt string) {
		t.Helper()
		before := sceneState(t, db)
		if _, err := db.ExecOne(stmt); !errors.Is(err, txn.ErrLockConflict) {
			t.Fatalf("%s = %v, want ErrLockConflict", stmt, err)
		}
		if sceneState(t, db) != before {
			t.Fatalf("%s failed but changed the scene", stmt)
		}
	}
	const deleteAll = `DELETE FROM brep-face-edge-point WHERE brep_no >= 1`
	const modifyAll = `MODIFY face SET square_dim = 9.5 WHERE square_dim >= 0`
	lock(cubes[4].Faces[brepgen.CubeFaces-1])
	refused(deleteAll)
	refused(modifyAll)
	lock(cubes[0].Faces[brepgen.CubeFaces-1])
	refused(`DELETE FROM brep WHERE brep_no = 1`)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		stmt string
		want int
	}{{modifyAll, 5 * brepgen.CubeFaces}, {`DELETE FROM brep WHERE brep_no = 1`, 1}, {deleteAll, 4 * brepgen.CubeAtoms}} {
		r, err := db.ExecOne(run.stmt)
		if err != nil {
			t.Fatalf("%s after the abort: %v", run.stmt, err)
		}
		if r.Count != run.want {
			t.Fatalf("%s after the abort: count %d, want %d", run.stmt, r.Count, run.want)
		}
		sceneState(t, db)
	}
}

func TestPersistentDatabase(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	res, err := db2.ExecOne(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1`)
	if err != nil {
		t.Fatalf("query after reopen: %v", err)
	}
	if len(res.Molecules) != 1 || res.Molecules[0].Size() != brepgen.CubeAtoms {
		t.Fatalf("reopened molecule wrong: %d", len(res.Molecules))
	}
	if ms := db2.Metrics(); ms.Gauge("wal_checkpoint_failing") != 0 || ms.Counter("buffer_hits")+ms.Counter("buffer_misses") == 0 {
		t.Fatalf("metrics after reopen: checkpoint failing %v, %d buffer fixes", ms.Gauge("wal_checkpoint_failing"), ms.Counter("buffer_hits")+ms.Counter("buffer_misses"))
	}
}

// TestExecOneUsesShapeCache: ExecOne runs the script path, so literal
// variants of one statement shape are planned once and served from the plan
// cache after.
func TestExecOneUsesShapeCache(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 4); err != nil {
		t.Fatal(err)
	}
	h0, m0, _ := db.Engine().PlanCacheStats()
	for n := 1; n <= 4; n++ {
		res, err := db.ExecOne(fmt.Sprintf(`SELECT ALL FROM brep-face WHERE brep_no = %d`, n))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Molecules) != 1 {
			t.Fatalf("brep_no = %d: %d molecules, want 1", n, len(res.Molecules))
		}
	}
	if h1, m1, _ := db.Engine().PlanCacheStats(); h1-h0 != 3 || m1-m0 != 1 {
		t.Fatalf("four variants of one shape: %d hits, %d misses; want 3, 1", h1-h0, m1-m0)
	}
}

// TestExecOneExplainShowsShape: an EXPLAIN sent through ExecOne is served
// from its SELECT's shape and prints the shape and the bound parameters.
func TestExecOneExplainShowsShape(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecOne(`EXPLAIN SELECT ALL FROM brep WHERE brep_no = 7`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"  shape: SELECT ALL FROM brep WHERE brep_no = $1\n", "  params: $1=7"} {
		if !strings.Contains(res.Message, want) {
			t.Fatalf("EXPLAIN output lacks %q:\n%s", want, res.Message)
		}
	}
}

// TestExecOneRefusesTwoStatements: a text of two statements is a syntax
// error, refused before either runs.
func TestExecOneRefusesTwoStatements(t *testing.T) {
	db := openMem(t)
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecOne(`INSERT INTO solid (solid_no) VALUES (1); SELECT ALL FROM solid`)
	if !errors.Is(err, mql.ErrSyntax) || res != nil {
		t.Fatalf("ExecOne of two statements = %v, %v; want a syntax error", res, err)
	}
	rs, err := db.Exec(`SELECT ALL FROM solid`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rs[0].Molecules); n != 0 {
		t.Fatalf("%d solids after a refused two-statement ExecOne, want 0", n)
	}
}
