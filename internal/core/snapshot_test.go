package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
	"prima/internal/storage/wal"
)

// TestSnapshotCursorFrozenUnderDML is the isolation acceptance test (run it
// under -race): a cursor opened before concurrent DELETE/MODIFY traffic must
// deliver exactly the pre-DML state — parallel read-ahead included. The
// subtests run at GOMAXPROCS 1 (inline) and 4 (read-ahead).
func TestSnapshotCursorFrozenUnderDML(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			e, _ := sceneEngine(t, 10)
			withProcs(t, workers)
			core.SetRootChunk(t, 3) // several chunks, so iteration overlaps the writer
			q := `SELECT ALL FROM brep-face-edge-point`

			baseCur := openCursor(t, e, q)
			baseline, err := baseCur.Collect()
			baseCur.Close()
			if err != nil {
				t.Fatalf("baseline Collect: %v", err)
			}

			cur := openCursor(t, e, q) // epoch pinned here, before any DML
			var wg sync.WaitGroup
			errc := make(chan error, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= 5; i++ {
					if _, err := e.ExecuteScript(fmt.Sprintf(`DELETE FROM brep-face-edge-point WHERE brep_no = %d`, 2*i)); err != nil {
						errc <- err
						return
					}
					if _, err := e.ExecuteScript(`MODIFY face SET square_dim = 777.0 WHERE square_dim > 0.0`); err != nil {
						errc <- err
						return
					}
					if _, err := e.ExecuteScript(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, 9000+i)); err != nil {
						errc <- err
						return
					}
				}
			}()
			got, err := cur.Collect()
			cur.Close()
			wg.Wait()
			if err != nil {
				t.Fatalf("Collect under DML: %v", err)
			}
			select {
			case err := <-errc:
				t.Fatalf("concurrent DML: %v", err)
			default:
			}

			want, have := renderSet(baseline), renderSet(got)
			if len(want) != len(have) {
				t.Fatalf("cursor under DML delivered %d molecules, pre-DML state has %d", len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("molecule %d differs from pre-DML state\nwant:\n%s\ngot:\n%s", i, want[i], have[i])
				}
			}
		})
	}
}

// TestDifferentialSnapshotVsSerial extends the differential corpus with
// interleaved DML: for every query, a cursor that survives deletes, updates
// and inserts mid-iteration must equal the uninterrupted pre-DML collect —
// for the inline and the read-ahead cursor alike (GOMAXPROCS 1 and 4).
func TestDifferentialSnapshotVsSerial(t *testing.T) {
	corpus := []string{
		`SELECT ALL FROM brep-face-edge-point`,
		`SELECT ALL FROM brep-face-edge-point WHERE brep_no > 2 AND brep_no <= 7`,
		`SELECT ALL FROM brep-face-edge-point WHERE edge.length > 5.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE FOR_ALL edge: edge.length > 0.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (4) face: face.square_dim > 2.0`,
		`SELECT solid_no, description FROM solid WHERE sub = EMPTY`,
	}
	dml := []string{
		`DELETE FROM brep-face-edge-point WHERE brep_no = 3`,
		`DELETE FROM brep-face-edge-point WHERE brep_no = 6`,
		`MODIFY face SET square_dim = 0.25 WHERE square_dim > 0.0`,
		`MODIFY solid SET description = 'dml' WHERE solid_no > 0`,
		`INSERT INTO solid (solid_no) VALUES (8001), (8002)`,
	}
	core.SetRootChunk(t, 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		for _, q := range corpus {
			e, _ := sceneEngine(t, 8)

			baseCur := openCursor(t, e, q)
			baseline, err := baseCur.Collect()
			baseCur.Close()
			if err != nil {
				t.Fatalf("workers=%d %s: baseline: %v", workers, q, err)
			}

			cur := openCursor(t, e, q)
			var got []*core.Molecule
			// Consume a prefix, mutate the database, consume the rest.
			for i := 0; i < 2; i++ {
				m, err := cur.Next()
				if err != nil {
					t.Fatalf("workers=%d %s: Next: %v", workers, q, err)
				}
				if m == nil {
					break
				}
				got = append(got, m)
			}
			for _, stmt := range dml {
				if _, err := e.ExecuteScript(stmt); err != nil {
					t.Fatalf("workers=%d %s: DML %q: %v", workers, q, stmt, err)
				}
			}
			rest, err := cur.Collect()
			cur.Close()
			if err != nil {
				t.Fatalf("workers=%d %s: Collect: %v", workers, q, err)
			}
			got = append(got, rest...)

			want, have := renderSet(baseline), renderSet(got)
			if len(want) != len(have) {
				t.Fatalf("workers=%d %s: interleaved cursor delivered %d molecules, pre-DML state has %d",
					workers, q, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("workers=%d %s: molecule %d differs\nwant:\n%s\ngot:\n%s", workers, q, i, want[i], have[i])
				}
			}

			// A cursor opened after the DML sees the new state, proving the
			// writes really landed while the old cursor stayed frozen.
			postCur := openCursor(t, e, q)
			post, err := postCur.Collect()
			postCur.Close()
			if err != nil {
				t.Fatalf("workers=%d %s: post-DML Collect: %v", workers, q, err)
			}
			if renderSetEqual(renderSet(post), want) {
				t.Fatalf("workers=%d %s: post-DML state unchanged — DML did not land", workers, q)
			}
		}
	}
}

func renderSetEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// openSnapshotsAtAcquire is a write scope that notes how many snapshots are
// open each time a mutation is admitted.
type openSnapshotsAtAcquire struct {
	sys  *access.System
	open []int
}

func (p *openSnapshotsAtAcquire) Acquire(addr.LogicalAddr) error {
	p.open = append(p.open, p.sys.OpenSnapshots())
	return nil
}

func (p *openSnapshotsAtAcquire) Release(addr.LogicalAddr, wal.Kind, []atom.Value, error) {}

// TestDMLClosesCursorBeforeApply: a set-oriented MODIFY or DELETE qualifies
// its molecules through a cursor, whose snapshot would pin every pre-image
// the statement's own writes produce. It is closed before the first write.
func TestDMLClosesCursorBeforeApply(t *testing.T) {
	e, _ := sceneEngine(t, 4)
	for _, q := range []string{
		`MODIFY face SET square_dim = 9.5 WHERE square_dim > -1000.0`,
		`DELETE FROM brep-face-edge-point WHERE brep_no >= 0`,
	} {
		p := &openSnapshotsAtAcquire{sys: e.System()}
		tr := e.System().Tracer().BeginForced("dml")
		_, err := e.ExecuteScriptTraced(q, tr, e.System().Writer(0, p))
		tr.Finish()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(p.open) == 0 {
			t.Fatalf("%s admitted no write", q)
		}
		for i, n := range p.open {
			if n != 0 {
				t.Fatalf("%s: %d snapshots open when write %d was admitted, want 0", q, n, i)
			}
		}
	}
}
