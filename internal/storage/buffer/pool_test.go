package buffer

import (
	"errors"
	"fmt"
	"testing"

	"prima/internal/storage/device"
	"prima/internal/storage/page"
	"prima/internal/storage/segment"
)

// newSeg builds an in-memory segment with n initialized data pages and
// returns it with the page numbers.
func newSeg(t testing.TB, id segment.ID, blockSize, n int) (*segment.Segment, []uint32) {
	t.Helper()
	dev, err := device.NewMem(blockSize)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	seg, err := segment.Create(dev, id, 4096)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	pages := make([]uint32, n)
	buf := make([]byte, blockSize)
	for i := range pages {
		no, err := seg.AllocatePage()
		if err != nil {
			t.Fatalf("AllocatePage: %v", err)
		}
		pg := page.Page(buf)
		pg.Init(page.TypeData, uint32(id), no)
		if _, err := pg.Insert([]byte(fmt.Sprintf("page-%d", no))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		pg.SealChecksum()
		if err := seg.WritePage(no, buf); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
		pages[i] = no
	}
	return seg, pages
}

func TestFixHitMiss(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 4)
	pool := NewPool(NewSizeAwareLRU(64 * 1024))
	pool.Register(seg)

	pid := segment.PageID{Seg: 1, No: pages[0]}
	h, err := pool.Fix(pid)
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	rec, err := h.Page().Read(0)
	if err != nil || string(rec) != fmt.Sprintf("page-%d", pages[0]) {
		t.Fatalf("page content = %q, %v", rec, err)
	}
	h.Release()

	// Second fix is a hit.
	h2, err := pool.Fix(pid)
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	h2.Release()
	st := pool.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if st.HitsBySize[device.B1K] != 1 {
		t.Fatalf("per-size hits = %v", st.HitsBySize)
	}
}

func TestUnregisteredSegment(t *testing.T) {
	pool := NewPool(NewSizeAwareLRU(1024))
	_, err := pool.Fix(segment.PageID{Seg: 9, No: 1})
	if !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Fix = %v, want ErrNotRegistered", err)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 4)
	// Room for exactly 2 pages.
	pool := NewPool(NewSizeAwareLRU(2 * device.B1K))
	pool.Register(seg)

	// Dirty page 0.
	h, err := pool.Fix(segment.PageID{Seg: 1, No: pages[0]})
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	if _, err := h.Page().Insert([]byte("dirty-marker")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	h.MarkDirty()
	h.Release()

	// Touch two more pages to evict page 0.
	for _, no := range pages[1:3] {
		h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
		if err != nil {
			t.Fatalf("Fix: %v", err)
		}
		h.Release()
	}
	if got := pool.Resident(); got != 2 {
		t.Fatalf("resident = %d, want 2", got)
	}
	st := pool.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("stats = %+v, want evictions and writebacks", st)
	}

	// Re-reading page 0 must see the dirty marker (written back).
	h, err = pool.Fix(segment.PageID{Seg: 1, No: pages[0]})
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	found := false
	h.Page().ForEach(func(_ int, rec []byte) bool {
		if string(rec) == "dirty-marker" {
			found = true
		}
		return true
	})
	h.Release()
	if !found {
		t.Fatal("dirty page content lost on eviction")
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 4)
	pool := NewPool(NewSizeAwareLRU(2 * device.B1K))
	pool.Register(seg)

	h0, err := pool.Fix(segment.PageID{Seg: 1, No: pages[0]})
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	h1, err := pool.Fix(segment.PageID{Seg: 1, No: pages[1]})
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	// Pool is full of pinned pages: next fix must fail.
	if _, err := pool.Fix(segment.PageID{Seg: 1, No: pages[2]}); !errors.Is(err, ErrNoVictim) {
		t.Fatalf("Fix with all pinned = %v, want ErrNoVictim", err)
	}
	h0.Release()
	// Now page 0 can be evicted.
	h2, err := pool.Fix(segment.PageID{Seg: 1, No: pages[2]})
	if err != nil {
		t.Fatalf("Fix after release: %v", err)
	}
	h2.Release()
	h1.Release()
}

func TestFixNew(t *testing.T) {
	seg, _ := newSeg(t, 1, device.B1K, 0)
	pool := NewPool(NewSizeAwareLRU(64 * 1024))
	pool.Register(seg)

	no, err := seg.AllocatePage()
	if err != nil {
		t.Fatalf("AllocatePage: %v", err)
	}
	pid := segment.PageID{Seg: 1, No: no}
	h, err := pool.FixNew(pid)
	if err != nil {
		t.Fatalf("FixNew: %v", err)
	}
	h.Page().Init(page.TypeData, 1, no)
	if _, err := h.Page().Insert([]byte("fresh")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	h.Release()

	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	// Read through the segment directly: the flushed page must validate.
	raw := make([]byte, seg.PageSize())
	if err := seg.ReadPage(no, raw); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if err := page.Page(raw).Validate(); err != nil {
		t.Fatalf("flushed page does not validate: %v", err)
	}
}

func TestInvalidate(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 2)
	pool := NewPool(NewSizeAwareLRU(64 * 1024))
	pool.Register(seg)
	pid := segment.PageID{Seg: 1, No: pages[0]}

	h, err := pool.Fix(pid)
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	if err := pool.Invalidate(pid); !errors.Is(err, ErrStillPinned) {
		t.Fatalf("Invalidate pinned = %v, want ErrStillPinned", err)
	}
	h.Release()
	if err := pool.Invalidate(pid); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	if pool.Resident() != 0 {
		t.Fatalf("resident = %d after invalidate", pool.Resident())
	}
	// Invalidate of a non-resident page is a no-op.
	if err := pool.Invalidate(pid); err != nil {
		t.Fatalf("Invalidate absent: %v", err)
	}
}

// TestMixedSizesOnePool exercises the paper's headline buffer feature: pages
// of different sizes coexist in one size-aware pool, and eviction frees
// enough bytes (possibly several small pages for one big page).
func TestMixedSizesOnePool(t *testing.T) {
	small, smallPages := newSeg(t, 1, device.B512, 8)
	big, bigPages := newSeg(t, 2, device.B8K, 2)

	pool := NewPool(NewSizeAwareLRU(10 * 1024)) // fits 8K + a few 512s, not everything
	pool.Register(small)
	pool.Register(big)

	for _, no := range smallPages {
		h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
		if err != nil {
			t.Fatalf("Fix small: %v", err)
		}
		h.Release()
	}
	if pool.Resident() != 8 {
		t.Fatalf("resident = %d, want 8 small pages", pool.Resident())
	}
	// Fixing an 8K page must evict several 512-byte pages.
	h, err := pool.Fix(segment.PageID{Seg: 2, No: bigPages[0]})
	if err != nil {
		t.Fatalf("Fix big: %v", err)
	}
	h.Release()
	// capacity 10240 - 8*512 resident = 6144 free; the 8K page needs 2048
	// more, i.e. four 512-byte victims.
	st := pool.Stats()
	if st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4 small pages displaced by one 8K page", st.Evictions)
	}
}

func TestPartitionedPolicyIsolation(t *testing.T) {
	small, smallPages := newSeg(t, 1, device.B512, 8)
	big, bigPages := newSeg(t, 2, device.B8K, 2)

	pool := NewPool(NewPartitionedLRU(map[int]int64{
		device.B512: 2 * device.B512,
		device.B8K:  device.B8K,
	}))
	pool.Register(small)
	pool.Register(big)

	// Fill the small partition.
	for _, no := range smallPages[:4] {
		h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
		if err != nil {
			t.Fatalf("Fix small: %v", err)
		}
		h.Release()
	}
	// Only 2 small pages fit regardless of the big partition being empty.
	if pool.Resident() != 2 {
		t.Fatalf("resident = %d, want 2 (static partition)", pool.Resident())
	}
	// The big partition admits exactly one 8K page.
	h, err := pool.Fix(segment.PageID{Seg: 2, No: bigPages[0]})
	if err != nil {
		t.Fatalf("Fix big: %v", err)
	}
	h.Release()
	if pool.Resident() != 3 {
		t.Fatalf("resident = %d, want 3", pool.Resident())
	}
	// A size with no partition is rejected.
	dev, _ := device.NewMem(device.B2K)
	seg3, err := segment.Create(dev, 3, 64)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	no, _ := seg3.AllocatePage()
	pool.Register(seg3)
	if _, err := pool.FixNew(segment.PageID{Seg: 3, No: no}); !errors.Is(err, ErrNoVictim) {
		t.Fatalf("Fix unpartitioned size = %v, want ErrNoVictim", err)
	}
}

func TestClassicLRUFrameBudget(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 5)
	pool := NewPool(NewClassicLRU(3))
	pool.Register(seg)

	for _, no := range pages {
		h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
		if err != nil {
			t.Fatalf("Fix: %v", err)
		}
		h.Release()
	}
	if pool.Resident() != 3 {
		t.Fatalf("resident = %d, want 3 frames", pool.Resident())
	}
	// LRU order: pages[2..4] resident, pages[0..1] evicted. Fixing pages[2]
	// must be a hit.
	before := pool.Stats().Hits
	h, err := pool.Fix(segment.PageID{Seg: 1, No: pages[2]})
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	h.Release()
	if pool.Stats().Hits != before+1 {
		t.Fatal("expected LRU to keep the most recently used pages")
	}
}

func TestCloseFlushes(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 1)
	pool := NewPool(NewSizeAwareLRU(64 * 1024))
	pool.Register(seg)

	pid := segment.PageID{Seg: 1, No: pages[0]}
	h, err := pool.Fix(pid)
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	if _, err := h.Page().Insert([]byte("close-flush")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	h.MarkDirty()
	h.Release()
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	raw := make([]byte, seg.PageSize())
	if err := seg.ReadPage(pages[0], raw); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	found := false
	page.Page(raw).ForEach(func(_ int, rec []byte) bool {
		if string(rec) == "close-flush" {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("Close did not flush dirty page")
	}
}

// BenchmarkPolicies (A1) compares size-aware LRU — one pool shared by all
// page sizes — with static partitioning — one part per size — at one 40 KiB
// budget over 512-byte and 8 KiB pages. A fixed pass of two phases, 200
// rounds over 32 small pages and then 200 over 4 large ones, reports its hit
// ratio (pass-hit-ratio); the benchmark fails unless size-aware LRU beats
// partitioning on it, since in each phase a partition leaves the other
// part's budget idle. The timed loop interleaves both sizes (hit-ratio).
func BenchmarkPolicies(b *testing.B) {
	const budget = 40 * 1024
	pass := map[string]float64{}
	for _, tc := range []struct {
		name   string
		policy func() Policy
	}{
		{"size-aware", func() Policy { return NewSizeAwareLRU(budget) }},
		{"partitioned", func() Policy {
			return NewPartitionedLRU(map[int]int64{device.B512: budget / 2, device.B8K: budget / 2})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			small, smallPages := newSeg(b, 1, device.B512, 64)
			big, bigPages := newSeg(b, 2, device.B8K, 8)
			pool := NewPool(tc.policy())
			pool.Register(small)
			pool.Register(big)
			fix := func(pid segment.PageID) {
				h, err := pool.Fix(pid)
				if err != nil {
					b.Fatal(err)
				}
				h.Release()
			}
			for _, phase := range []struct {
				seg   segment.ID
				pages []uint32
			}{{1, smallPages[:32]}, {2, bigPages[:4]}} {
				for round := 0; round < 200; round++ {
					for _, no := range phase.pages {
						fix(segment.PageID{Seg: phase.seg, No: no})
					}
				}
			}
			pass[tc.name] = pool.Stats().HitRatio()
			pool.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4 == 0 {
					fix(segment.PageID{Seg: 2, No: bigPages[i%len(bigPages)]})
				} else {
					fix(segment.PageID{Seg: 1, No: smallPages[i%len(smallPages)]})
				}
			}
			b.ReportMetric(pool.Stats().HitRatio(), "hit-ratio")
			b.ReportMetric(pass[tc.name], "pass-hit-ratio")
		})
	}
	if sa, pt := pass["size-aware"], pass["partitioned"]; len(pass) == 2 && sa <= pt {
		b.Fatalf("fixed pass: size-aware LRU hit ratio %.3f, static partitioning %.3f: size-aware must beat partitioning", sa, pt)
	}
}

// fakeGate is a LogGate that records the highest position it was asked to
// force and can fail on demand.
type fakeGate struct {
	lsn     uint64
	forced  uint64
	flushes int
	fail    error
}

func (g *fakeGate) WriteLSN() uint64 { return g.lsn }
func (g *fakeGate) FlushTo(lsn uint64) error {
	if g.fail != nil {
		return g.fail
	}
	g.flushes++
	if lsn > g.forced {
		g.forced = lsn
	}
	return nil
}

func TestLogGateForcedBeforeWriteback(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 2)
	pool := NewPool(NewSizeAwareLRU(64 * 1024))
	gate := &fakeGate{lsn: 700}
	pool.SetLogGate(gate)
	pool.Register(seg)

	pid := segment.PageID{Seg: 1, No: pages[0]}
	h, err := pool.Fix(pid)
	if err != nil {
		t.Fatalf("Fix: %v", err)
	}
	if _, err := h.Page().Insert([]byte("logged-write")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	h.MarkDirty() // stamps pageLSN = 700
	h.Release()

	// A failing log force must block the page write entirely.
	gate.fail = errors.New("log device down")
	if err := pool.Flush(pid); err == nil {
		t.Fatal("Flush succeeded with the log unforceable")
	}
	buf := make([]byte, device.B1K)
	if err := seg.ReadPage(pages[0], buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	found := false
	page.Page(buf).ForEach(func(_ int, rec []byte) bool {
		if string(rec) == "logged-write" {
			found = true
		}
		return true
	})
	if found {
		t.Fatal("page bytes reached the device before the log was forced")
	}

	// Once the log can be forced, writeback proceeds — and forces at least
	// up to the dirty stamp first.
	gate.fail = nil
	if err := pool.Flush(pid); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if gate.forced < 700 {
		t.Fatalf("log forced to %d, want >= 700 (the pageLSN stamp)", gate.forced)
	}
	if err := seg.ReadPage(pages[0], buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	found = false
	page.Page(buf).ForEach(func(_ int, rec []byte) bool {
		if string(rec) == "logged-write" {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("page not written back after successful log force")
	}
}
