package du

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
	"prima/internal/workload/brepgen"
)

func newScene(t testing.TB, n int) *core.Engine {
	t.Helper()
	sys, err := access.Open(access.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(sys)
	if err := brepgen.InstallSchema(e); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(e, n); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSchedulerConflictSerialization(t *testing.T) {
	shared := addr.New(1, 99)
	var units []*Unit
	// 8 units writing the same atom (must serialize) + 8 disjoint ones.
	for i := 0; i < 8; i++ {
		units = append(units, &Unit{ID: i, Writes: map[addr.LogicalAddr]bool{shared: true}})
	}
	for i := 8; i < 16; i++ {
		units = append(units, &Unit{ID: i, Writes: map[addr.LogicalAddr]bool{addr.New(1, uint64(i)): true}})
	}

	var mu sync.Mutex
	inShared := 0
	maxShared := 0
	var total int32
	err := Scheduler{Workers: 8}.Run(units, func(u *Unit) error {
		if u.Writes[shared] {
			mu.Lock()
			inShared++
			if inShared > maxShared {
				maxShared = inShared
			}
			mu.Unlock()
			for i := 0; i < 1000; i++ { // widen the race window
				_ = i
			}
			mu.Lock()
			inShared--
			mu.Unlock()
		}
		atomic.AddInt32(&total, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 16 {
		t.Fatalf("executed %d units, want 16", total)
	}
	if maxShared > 1 {
		t.Fatalf("conflicting units overlapped: %d concurrent", maxShared)
	}
}

func TestSchedulerErrorStopsSchedule(t *testing.T) {
	units := make([]*Unit, 100)
	for i := range units {
		units[i] = &Unit{ID: i}
	}
	boom := errors.New("boom")
	var ran int32
	err := Scheduler{Workers: 4}.Run(units, func(u *Unit) error {
		if atomic.AddInt32(&ran, 1) == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if atomic.LoadInt32(&ran) == 100 {
		t.Fatal("error did not stop the schedule")
	}
}

func TestParallelApply(t *testing.T) {
	e := newScene(t, 8)
	sys := e.System()
	roots, err := sys.ScanAddrs("solid")
	if err != nil {
		t.Fatal(err)
	}
	err = ParallelApply(roots, 4, func(a addr.LogicalAddr) error {
		return sys.Update(a, map[string]atom.Value{"description": atom.Str("painted")})
	})
	if err != nil {
		t.Fatalf("ParallelApply: %v", err)
	}
	n := 0
	sys.AtomTypeScan("solid", access.SSA{{Attr: "description", Op: access.OpEQ, Value: atom.Str("painted")}}, nil,
		func(*access.Atom) bool { n++; return true })
	if n != 8 {
		t.Fatalf("painted %d solids, want 8", n)
	}
}
