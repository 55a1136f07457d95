package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"prima/internal/core"
)

// withProcs runs the rest of the test at GOMAXPROCS n, the platform input a
// cursor's assembly width is derived from: 1 keeps every cursor inline, 4
// lets a cursor over several roots read ahead on up to four workers.
func withProcs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// openCursor plans and opens a SELECT.
func openCursor(t testing.TB, e *core.Engine, q string) *core.Cursor {
	t.Helper()
	plan, err := e.PlanQuery(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	cur, err := plan.Open()
	if err != nil {
		t.Fatalf("open %q: %v", q, err)
	}
	return cur
}

// TestParallelCursorMatchesSerial checks that the parallel assembly pipeline
// delivers exactly the serial cursor's molecules, in the same root order.
func TestParallelCursorMatchesSerial(t *testing.T) {
	e, _ := sceneEngine(t, 12)
	q := `SELECT ALL FROM brep-face-edge-point`

	withProcs(t, 1)
	serialCur := openCursor(t, e, q)
	serial, err := serialCur.Collect()
	serialCur.Close()
	if err != nil {
		t.Fatalf("serial Collect: %v", err)
	}

	runtime.GOMAXPROCS(4)
	core.SetRootChunk(t, 5) // force multiple chunks
	parCur := openCursor(t, e, q)
	parallel, err := parCur.Collect()
	parCur.Close()
	if err != nil {
		t.Fatalf("parallel Collect: %v", err)
	}

	if len(parallel) != len(serial) {
		t.Fatalf("parallel = %d molecules, serial = %d", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i].Root.Addr() != parallel[i].Root.Addr() {
			t.Fatalf("molecule %d: root %v != %v (order not preserved)", i, parallel[i].Root.Addr(), serial[i].Root.Addr())
		}
		if len(serial[i].SortedAddrs()) != len(parallel[i].SortedAddrs()) {
			t.Fatalf("molecule %d: %d atoms != %d", i, len(parallel[i].SortedAddrs()), len(serial[i].SortedAddrs()))
		}
	}
}

// TestParallelCursorQualification checks restriction and projection still
// decide per molecule under parallel assembly.
func TestParallelCursorQualification(t *testing.T) {
	e, _ := sceneEngine(t, 10)
	withProcs(t, 4)
	core.SetRootChunk(t, 3)
	r := mustQuery(t, e, `SELECT ALL FROM brep-face-edge-point WHERE brep_no >= 4 AND brep_no <= 7`)
	if len(r.Molecules) != 4 {
		t.Fatalf("got %d molecules, want 4", len(r.Molecules))
	}
	for i, m := range r.Molecules {
		v, _ := m.Root.Value("brep_no")
		if want := int64(i + 4); v.I != want {
			t.Fatalf("molecule %d: brep_no = %d, want %d (order)", i, v.I, want)
		}
	}
}

// TestParallelCursorEarlyClose closes a parallel cursor mid-stream; the
// pipeline must wind down without deadlocking the remaining workers (run
// under -race this also exercises the shutdown paths).
func TestParallelCursorEarlyClose(t *testing.T) {
	e, _ := sceneEngine(t, 20)
	withProcs(t, 4)
	core.SetRootChunk(t, 2)
	cur := openCursor(t, e, `SELECT ALL FROM brep-face-edge-point`)
	for i := 0; i < 3; i++ {
		m, err := cur.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if m == nil {
			t.Fatal("cursor dried up early")
		}
	}
	cur.Close()
	if m, err := cur.Next(); m != nil || err != nil {
		t.Fatalf("Next after Close = %v, %v", m, err)
	}
}

// TestParallelCursorErrorPropagation forces an assembly error (recursion
// bound) and checks it surfaces through the ordered pipeline.
func TestParallelCursorErrorPropagation(t *testing.T) {
	e := newEngine(t)
	// A three-solid recursion chain deeper than the allowed depth.
	r := mustQuery(t, e, `INSERT INTO solid (solid_no) VALUES (1), (2), (3)`)
	if len(r.Inserted) != 3 {
		t.Fatalf("seed solids = %d", len(r.Inserted))
	}
	mustQuery(t, e, fmt.Sprintf(`CONNECT %v TO %v VIA sub`, r.Inserted[0], r.Inserted[1]))
	mustQuery(t, e, fmt.Sprintf(`CONNECT %v TO %v VIA sub`, r.Inserted[1], r.Inserted[2]))

	e.SetMaxRecursionDepth(1)
	withProcs(t, 4)
	if _, err := execOne(e, `SELECT ALL FROM solid.sub-solid (RECURSIVE)`); err == nil {
		t.Fatal("expected recursion depth error through the parallel cursor")
	}
}

// TestAbandonedCursorWindsDown drops a parallel cursor without Close; the
// finalizer safety net must still shut the pipeline's goroutines down.
func TestAbandonedCursorWindsDown(t *testing.T) {
	e, _ := sceneEngine(t, 20)
	withProcs(t, 4)
	core.SetRootChunk(t, 2)
	base := runtime.NumGoroutine()
	func() {
		cur := openCursor(t, e, `SELECT ALL FROM brep-face-edge-point`)
		if _, err := cur.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
		// cur goes out of scope without Close.
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		if runtime.NumGoroutine() <= base {
			return
		}
	}
	t.Fatalf("pipeline goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestScanSnapshotBound inserts a new root per delivered molecule; the
// lazy root stream must stay bounded by the population at open (snapshot
// semantics) instead of chasing its own inserts forever.
func TestScanSnapshotBound(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `INSERT INTO solid (solid_no) VALUES (1), (2), (3), (4), (5)`)
	core.SetRootChunk(t, 2)
	cur := openCursor(t, e, `SELECT ALL FROM solid`)
	defer cur.Close()
	n := 0
	for {
		m, err := cur.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if m == nil {
			break
		}
		n++
		if n > 5 {
			t.Fatal("cursor chased atoms inserted during iteration")
		}
		mustQuery(t, e, fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, 100+n))
	}
	if n != 5 {
		t.Fatalf("delivered %d molecules, want the 5 present at open", n)
	}
}

// TestCloseJoinsWorkers closes a parallel cursor mid-stream and immediately
// mutates the scanned data: Close must have joined the workers, so under
// -race no background page read overlaps the update.
func TestCloseJoinsWorkers(t *testing.T) {
	e, _ := sceneEngine(t, 16)
	withProcs(t, 4)
	core.SetRootChunk(t, 2)
	cur := openCursor(t, e, `SELECT ALL FROM brep-face-edge-point`)
	if _, err := cur.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	cur.Close()
	r := mustQuery(t, e, `MODIFY face SET square_dim = 9.25 WHERE square_dim >= 0.0`)
	if r.Count == 0 {
		t.Fatal("modify touched nothing")
	}
}

// TestConcurrentQueries runs many parallel-cursor queries at once — the
// sharded buffer pool, batched reads and pipeline all under -race.
func TestConcurrentQueries(t *testing.T) {
	e, _ := sceneEngine(t, 8)
	withProcs(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, g%8+1)
			r, err := execOne(e, q)
			if err != nil {
				errs <- err
				return
			}
			if len(r.Molecules) != 1 {
				errs <- fmt.Errorf("query %d: %d molecules", g, len(r.Molecules))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
