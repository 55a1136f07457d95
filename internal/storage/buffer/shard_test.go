package buffer

import (
	"fmt"
	"sync"
	"testing"

	"prima/internal/storage/device"
	"prima/internal/storage/page"
	"prima/internal/storage/segment"
)

func TestShardedPoolBasics(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 8)
	pool := NewShardedPool(func() Policy { return NewSizeAwareLRU(64 * 1024) }, 4)
	pool.Register(seg)
	if pool.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", pool.Shards())
	}

	for _, no := range pages {
		h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
		if err != nil {
			t.Fatalf("Fix: %v", err)
		}
		h.Release()
	}
	if pool.Resident() != 8 {
		t.Fatalf("resident = %d, want 8", pool.Resident())
	}
	st := pool.Stats()
	if st.Misses != 8 || st.Hits != 0 {
		t.Fatalf("stats = %d hits / %d misses, want 0/8", st.Hits, st.Misses)
	}
	// Refix: all hits, aggregated across shards.
	for _, no := range pages {
		h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
		if err != nil {
			t.Fatalf("Fix: %v", err)
		}
		h.Release()
	}
	if st := pool.Stats(); st.Hits != 8 {
		t.Fatalf("aggregated hits = %d, want 8", st.Hits)
	}
}

func TestShardedPoolRoundsToPowerOfTwo(t *testing.T) {
	pool := NewShardedPool(func() Policy { return NewSizeAwareLRU(1024) }, 5)
	if pool.Shards() != 8 {
		t.Fatalf("Shards = %d, want 8 (next power of two)", pool.Shards())
	}
}

// TestShardedPoolConcurrent hammers a small sharded pool from many
// goroutines: concurrent Fix/Unfix, dirtying, and eviction pressure (the
// budget holds only a fraction of the working set). Run under -race this is
// the safety net for the lock striping.
func TestShardedPoolConcurrent(t *testing.T) {
	const nPages = 64
	seg, pages := newSeg(t, 1, device.B1K, nPages)
	// Each shard holds half of its ~16 pages: plenty of eviction and
	// writeback traffic, and a frame for every worker should all eight pin
	// pages of one shard at once.
	pool := NewShardedPool(func() Policy { return NewSizeAwareLRU(8 * device.B1K) }, 4)
	pool.Register(seg)

	// The pool does not latch fixed pages: writers of one page coordinate
	// among themselves, here with a mutex per page.
	var latch [nPages]sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				idx := (g*131 + i*17) % nPages
				no := pages[idx]
				h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
				if err != nil {
					errs <- fmt.Errorf("worker %d: Fix %d: %v", g, no, err)
					return
				}
				if i%7 == 0 {
					latch[idx].Lock()
					if _, err := h.Page().Insert([]byte{byte(g), byte(i)}); err == nil {
						h.MarkDirty()
					}
					latch[idx].Unlock()
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := pool.Stats()
	if st.Hits+st.Misses != 8*400 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*400)
	}
	if st.Evictions == 0 {
		t.Fatal("expected eviction pressure across shards")
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Every page must still validate on disk after concurrent writebacks.
	raw := make([]byte, seg.PageSize())
	for _, no := range pages {
		if err := seg.ReadPage(no, raw); err != nil {
			t.Fatalf("ReadPage %d: %v", no, err)
		}
		if err := page.Page(raw).Validate(); err != nil {
			t.Fatalf("page %d corrupt after concurrent run: %v", no, err)
		}
	}
}

// TestShardStability checks a page always lands on the same shard, so
// fix/unfix of one page never crosses a stripe boundary.
func TestShardStability(t *testing.T) {
	pool := NewShardedPool(func() Policy { return NewSizeAwareLRU(1024) }, 8)
	for i := 0; i < 100; i++ {
		pid := segment.PageID{Seg: segment.ID(i % 5), No: uint32(i)}
		first := pool.shardOf(pid)
		for j := 0; j < 3; j++ {
			if pool.shardOf(pid) != first {
				t.Fatalf("pid %v hashed to different shards", pid)
			}
		}
	}
}
