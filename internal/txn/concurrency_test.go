package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
)

// no reads part atom a's "no" attribute.
func no(t *testing.T, sys *access.System, a addr.LogicalAddr) int64 {
	t.Helper()
	at, err := sys.Get(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := at.Value("no")
	return v.I
}

func setNo(w access.Writer, a addr.LogicalAddr, n int64) error {
	return w.Update(a, map[string]atom.Value{"no": atom.Int(n)})
}

// inStatement starts tx's statement on its own goroutine: it writes a, then
// holds the statement open until the returned finish is called, which waits
// for Do to return and reports its error.
func inStatement(t *testing.T, tx *Tx, a addr.LogicalAddr) (finish func() error) {
	t.Helper()
	wrote, hold := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- tx.Do(func(w access.Writer) error {
			if err := setNo(w, a, 2); err != nil {
				close(wrote)
				return err
			}
			close(wrote)
			<-hold
			return nil
		})
	}()
	<-wrote
	return func() error {
		close(hold)
		return <-done
	}
}

// TestAutocommitNotCapturedByConcurrentTx: an autocommit write made while a
// transaction's statement runs belongs to no transaction — it is not locked
// for the transaction, and the transaction's abort leaves it alone.
func TestAutocommitNotCapturedByConcurrentTx(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	a, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	b, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})

	tx := m.Begin()
	finish := inStatement(t, tx, a)
	if err := setNo(m.Autocommit(), b, 5); err != nil {
		t.Fatalf("autocommit write during the statement: %v", err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	if err := setNo(m.Autocommit(), b, 6); err != nil {
		t.Fatalf("next autocommit write of b: %v (locked by the transaction?)", err)
	}
	// a is the transaction's: autocommit still may not touch it.
	if err := setNo(m.Autocommit(), a, 7); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("autocommit write of the transaction's atom = %v, want ErrLockConflict", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := no(t, sys, b); got != 6 {
		t.Fatalf("b = %d after the transaction aborted, want the acked 6", got)
	}
	if got := no(t, sys, a); got != 1 {
		t.Fatalf("a = %d after abort, want 1", got)
	}
}

// TestDisjointTransactionsRunConcurrently: transactions on disjoint atoms do
// not serialise their statements — B's statement completes while A's is
// still in progress.
func TestDisjointTransactionsRunConcurrently(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	a, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	b, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})

	ta, tb := m.Begin(), m.Begin()
	finishA := inStatement(t, ta, a)
	bDone := make(chan error, 1)
	go func() {
		bDone <- tb.Do(func(w access.Writer) error { return setNo(w, b, 3) })
	}()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		finishA()
		<-bDone
		t.Fatal("B's statement did not complete while A's was in progress")
	}
	if err := finishA(); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	if ga, gb := no(t, sys, a), no(t, sys, b); ga != 2 || gb != 3 {
		t.Fatalf("a, b = %d, %d, want 2, 3", ga, gb)
	}
}

// TestAbortedTxNeverClobbersAckedAutocommit hammers one atom from both sides:
// a transaction loops Begin/Update/Abort while an autocommit writer stamps
// increasing revisions. Every write is refused or admitted whole, so at
// quiescence the atom holds the last acknowledged revision — an abort never
// restores a pre-image older than a write acked after it was read. Each
// round makes at least 1,000 autocommit attempts and goes on until one is
// admitted, failing after 30 seconds without one. Run it under -race.
func TestAbortedTxNeverClobbersAckedAutocommit(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	a, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(0)})
	rev := int64(0)
	for round := 0; round < 3; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := m.Begin()
				_ = tx.Do(func(w access.Writer) error { return setNo(w, a, -1) })
				if err := tx.Abort(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		// At least 1,000 attempts, and on until one is admitted: a loaded
		// machine can starve the writer of admissions for a while.
		acked := int64(-2)
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; i < 1000 || acked == -2 && time.Now().Before(deadline); i++ {
			rev++
			if err := setNo(m.Autocommit(), a, rev); err == nil {
				acked = rev
			} else if !errors.Is(err, ErrLockConflict) {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if acked == -2 {
			t.Fatalf("round %d: no autocommit write was admitted", round)
		}
		if got := no(t, sys, a); got != acked {
			t.Fatalf("round %d: a = %d at quiescence, last acked revision %d", round, got, acked)
		}
	}
}

// TestTxnMetrics: conflicts, commits, aborts and live transactions are
// counted in the database's registry.
func TestTxnMetrics(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	a, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	ms := func() (conflicts, commits, aborts uint64, active float64) {
		s := sys.Obs().Snapshot()
		return s.Counter("txn_lock_conflicts_total"), s.Counter("txn_commits_total"), s.Counter("txn_aborts_total"), s.Gauge("txn_active")
	}
	t1, t2 := m.Begin(), m.Begin()
	child, err := t1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, active := ms(); active != 3 {
		t.Fatalf("txn_active = %v with three live transactions", active)
	}
	if err := child.Do(func(w access.Writer) error { return setNo(w, a, 2) }); err != nil {
		t.Fatal(err)
	}
	if err := t2.Do(func(w access.Writer) error { return setNo(w, a, 3) }); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting write = %v", err)
	}
	if err := setNo(m.Autocommit(), a, 4); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting autocommit write = %v", err)
	}
	for _, err := range []error{child.Commit(), t1.Commit(), t2.Abort()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	conflicts, commits, aborts, active := ms()
	if conflicts != 2 || commits != 2 || aborts != 1 || active != 0 {
		t.Fatalf("conflicts %d, commits %d, aborts %d, active %v; want 2, 2, 1, 0", conflicts, commits, aborts, active)
	}
}
