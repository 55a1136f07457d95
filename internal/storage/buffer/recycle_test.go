package buffer

import (
	"math/rand"
	"testing"

	"prima/internal/race"
	"prima/internal/storage/device"
	"prima/internal/storage/segment"
)

// held returns the bytes of the pool's resident and of its free frames.
func held(p *Pool) (resident, free int64) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			resident += int64(len(f.data))
		}
		for _, f := range sh.free {
			for ; f != nil; f = f.next {
				free += int64(len(f.data))
			}
		}
		sh.mu.Unlock()
	}
	return resident, free
}

// TestAllocsFix pins the point of recycling: a fix allocates nothing, neither
// on a hit nor, once the pool has filled, on a miss that evicts — over mixed
// 4 KiB structure and 8 KiB data pages, with resident and free frames
// together within the budget after every step.
func TestAllocsFix(t *testing.T) {
	const budget = 16 * (device.B8K + 2*device.B4K)
	pool := NewPool(NewSizeAwareLRU(budget))
	seg4, pages4 := newSeg(t, 1, device.B4K, 128)
	seg8, pages8 := newSeg(t, 2, device.B8K, 64)
	pool.Register(seg4)
	pool.Register(seg8)

	// One data page, two structure pages, round and round: a working set of
	// four times the budget, so that after the first 48 every fix misses.
	var pids []segment.PageID
	for i := range pages8 {
		pids = append(pids,
			segment.PageID{Seg: 2, No: pages8[i]},
			segment.PageID{Seg: 1, No: pages4[2*i]},
			segment.PageID{Seg: 1, No: pages4[2*i+1]})
	}
	next := 0
	step := func() {
		h, err := pool.Fix(pids[next%len(pids)])
		if err != nil {
			t.Fatalf("Fix %v: %v", pids[next%len(pids)], err)
		}
		h.Release()
		next++
		if resident, free := held(pool); resident+free > budget {
			t.Fatalf("step %d: %d resident + %d free bytes exceed the budget of %d", next, resident, free, budget)
		}
	}
	for range pids {
		step()
	}

	warm := pool.Stats()
	if !race.Enabled {
		if n := testing.AllocsPerRun(2*len(pids)-1, step); n != 0 {
			t.Errorf("evicting miss: %v allocs per fix, want 0", n)
		}
		hit := pids[(next-1)%len(pids)]
		if n := testing.AllocsPerRun(100, func() {
			h, err := pool.Fix(hit)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}); n != 0 {
			t.Errorf("hit: %v allocs per fix, want 0", n)
		}
	} else {
		for range pids {
			step()
		}
	}
	st := pool.Stats()
	if st.FrameAllocs != warm.FrameAllocs {
		t.Errorf("frames allocated in steady state: %d, then %d", warm.FrameAllocs, st.FrameAllocs)
	}
	if got, want := st.FramesRecycled-warm.FramesRecycled, st.Misses-warm.Misses; got != want || want == 0 {
		t.Errorf("%d frames recycled over %d misses", got, want)
	}

	// A fresh page in a recycled frame starts all-zero, whatever the frame
	// held before.
	no, err := seg8.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	h, err := pool.FixNew(segment.PageID{Seg: 2, No: no})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Stats().FramesRecycled != st.FramesRecycled+1 {
		t.Fatalf("FixNew did not reuse a frame")
	}
	for i, b := range h.Page() {
		if b != 0 {
			t.Fatalf("recycled frame: byte %d of a fresh page is %#x", i, b)
		}
	}
	h.Page().Init(1, 2, no)
	h.Release()
}

// TestFreeFramesWithinBudget drives the three policies with a random mix of
// page sizes, pins and invalidations: whatever the order of sizes, resident
// and free frames together stay within what the policy admits as resident.
func TestFreeFramesWithinBudget(t *testing.T) {
	const budget = 10 * device.B8K
	policies := map[string]Policy{
		"size-aware":  NewSizeAwareLRU(budget),
		"partitioned": NewPartitionedLRU(map[int]int64{device.B1K: budget / 4, device.B4K: budget / 4, device.B8K: budget / 2}),
		"classic":     NewClassicLRU(budget / device.B8K),
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			pool := NewPool(policy)
			var pids []segment.PageID
			for id, size := range map[segment.ID]int{1: device.B1K, 2: device.B4K, 3: device.B8K} {
				seg, pages := newSeg(t, id, size, 40)
				pool.Register(seg)
				for _, no := range pages {
					pids = append(pids, segment.PageID{Seg: id, No: no})
				}
			}
			rng := rand.New(rand.NewSource(17))
			var pinned []Handle
			for i := 0; i < 5000; i++ {
				pid := pids[rng.Intn(len(pids))]
				switch rng.Intn(10) {
				case 0:
					if err := pool.Invalidate(pid); err != nil && len(pinned) == 0 {
						t.Fatalf("Invalidate %v: %v", pid, err)
					}
				case 1:
					if len(pinned) < 3 {
						if h, err := pool.Fix(pid); err == nil {
							pinned = append(pinned, h)
						}
						break
					}
					pinned[0].Release()
					pinned = pinned[1:]
				default:
					h, err := pool.Fix(pid)
					if err != nil {
						t.Fatalf("Fix %v: %v", pid, err)
					}
					if err := h.Page().Validate(); err != nil || h.PageID() != pid {
						t.Fatalf("Fix %v returned page %v: %v", pid, h.PageID(), err)
					}
					h.Release()
				}
				if resident, free := held(pool); resident+free > budget {
					t.Fatalf("step %d: %d resident + %d free bytes exceed the budget of %d", i, resident, free, budget)
				}
			}
			if st := pool.Stats(); st.FramesRecycled == 0 || st.FrameAllocs+st.FramesRecycled != st.Misses {
				t.Errorf("%d allocated + %d recycled frames over %d misses", st.FrameAllocs, st.FramesRecycled, st.Misses)
			}
		})
	}
}
