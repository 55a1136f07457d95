// Package du implements semantic decomposition (§4): "units of work
// decomposed from a single user operation are said to allow for inherent
// semantic parallelism when they do not conflict with each other at the
// level of decomposition. Such decomposed units of work (DU's) may be
// scheduled and executed concurrently by the DBMS."
//
// The multiprocessor PRIMA is simulated by goroutines: a molecule-set
// modification decomposes into one unit per root atom; a conflict relation
// over the units' write sets gates concurrent execution. (Retrieval needs no
// scheduler — read-only units never conflict — so parallel molecule
// assembly lives in the data system's cursor pipeline.)
package du

import (
	"sync"

	"prima/internal/access/addr"
)

// Unit is one decomposed unit of work.
type Unit struct {
	ID    int
	Roots []addr.LogicalAddr
	// Writes is the unit's write set (empty for retrieval units);
	// conflicting units never run concurrently.
	Writes map[addr.LogicalAddr]bool
}

// Conflicts reports whether two units' write sets overlap (write-write) —
// the decomposition-level conflict notion of the paper. Read-only units
// never conflict.
func Conflicts(a, b *Unit) bool {
	if len(a.Writes) == 0 || len(b.Writes) == 0 {
		return false
	}
	small, large := a.Writes, b.Writes
	if len(small) > len(large) {
		small, large = large, small
	}
	for w := range small {
		if large[w] {
			return true
		}
	}
	return false
}

// Scheduler executes units on a bounded worker pool, delaying units that
// conflict with a running one.
type Scheduler struct {
	Workers int
}

// Run executes every unit via exec. Conflicting units are serialized; the
// first error cancels the remaining schedule and is returned.
func (s Scheduler) Run(units []*Unit, exec func(*Unit) error) error {
	if len(units) == 0 {
		return nil
	}
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		running  = map[int]*Unit{}
		next     int
		firstErr error
		wg       sync.WaitGroup
	)

	canRun := func(u *Unit) bool {
		for _, r := range running {
			if Conflicts(u, r) {
				return false
			}
		}
		return true
	}

	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			for {
				if firstErr != nil || next >= len(units) {
					mu.Unlock()
					return
				}
				u := units[next]
				if canRun(u) {
					next++
					running[u.ID] = u
					mu.Unlock()
					err := exec(u)
					mu.Lock()
					delete(running, u.ID)
					if err != nil && firstErr == nil {
						firstErr = err
					}
					cond.Broadcast()
					mu.Unlock()
					break
				}
				cond.Wait()
			}
		}
	}

	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	wg.Wait()
	// Wake any workers still parked on the condition variable.
	cond.Broadcast()
	return firstErr
}

// ParallelApply runs fn once per molecule root concurrently; each unit's
// write set is the root atom, so units writing distinct molecules proceed
// in parallel while overlapping ones serialize. This is the shape of a
// decomposed molecule-set modification.
func ParallelApply(roots []addr.LogicalAddr, workers int, fn func(addr.LogicalAddr) error) error {
	units := make([]*Unit, len(roots))
	for i, r := range roots {
		units[i] = &Unit{ID: i, Roots: []addr.LogicalAddr{r}, Writes: map[addr.LogicalAddr]bool{r: true}}
	}
	return Scheduler{Workers: workers}.Run(units, func(u *Unit) error {
		return fn(u.Roots[0])
	})
}
