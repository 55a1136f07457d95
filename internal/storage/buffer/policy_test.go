package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"prima/internal/storage/device"
	"prima/internal/storage/segment"
)

// isResident reports whether pid holds a frame, without touching it.
func isResident(p *Pool, pid segment.PageID) bool {
	sh := p.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.frames[pid]
	return ok
}

// fixRelease fixes pid, dirtying it when dirty is set, and releases it.
func fixRelease(t *testing.T, p *Pool, pid segment.PageID, dirty bool) {
	t.Helper()
	h, err := p.Fix(pid)
	if err != nil {
		t.Fatalf("Fix %v: %v", pid, err)
	}
	if dirty {
		h.MarkDirty()
	}
	h.Release()
}

// pids names pages of segment 1.
func pids(nos []uint32) []segment.PageID {
	out := make([]segment.PageID, len(nos))
	for i, no := range nos {
		out[i] = segment.PageID{Seg: 1, No: no}
	}
	return out
}

// logged installs a log gate on pool, as a database with a write-ahead log
// has: replacement keeps dirty pages only then. The gate's position stays 0,
// so no writeback forces it and it is safe beside concurrent fixes.
func logged(pool *Pool) *Pool {
	pool.SetLogGate(&fakeGate{})
	return pool
}

// checkChain verifies the split of c: the hot half is the longest run of
// most recent frames costing at most half of all, the cold ring is in the
// order its frames went cold, the clean thread holds exactly the cold
// half's clean frames in the cold ring's order, and the costs add up.
func checkChain(t *testing.T, c *chain) {
	t.Helper()
	var hot, all int64
	for f := c.hot.next; f != &c.hot; f = f.next {
		if f.cold {
			t.Fatalf("frame %v in the hot ring is marked cold", f.pid)
		}
		hot += c.costOf(f)
	}
	var clean []*frame
	for f := c.cold.next; f != &c.cold; f = f.next {
		if !f.cold {
			t.Fatalf("frame %v in the cold ring is marked hot", f.pid)
		}
		if f.next != &c.cold && f.next.coldAt > f.coldAt || f.coldAt > c.left {
			t.Fatalf("frame %v went cold at %d, the next colder at %d, the clock reads %d", f.pid, f.coldAt, f.next.coldAt, c.left)
		}
		if !f.dirty {
			clean = append(clean, f)
		}
		all += c.costOf(f)
	}
	all += hot
	if hot != c.hotCost || all != c.cost {
		t.Fatalf("costs: hot %d all %d, chain says %d and %d", hot, all, c.hotCost, c.cost)
	}
	if 2*hot > all {
		t.Fatalf("hot half costs %d of %d", hot, all)
	}
	if f := c.cold.next; f != &c.cold && 2*(hot+c.costOf(f)) <= all {
		t.Fatalf("newest cold frame %v fits the hot half (%d+%d of %d)", f.pid, hot, c.costOf(f), all)
	}
	i := 0
	for f := c.clean.cnext; f != &c.clean; f = f.cnext {
		if i >= len(clean) || clean[i] != f {
			t.Fatalf("clean thread position %d holds %v, not the cold ring's clean frames in order", i, f.pid)
		}
		i++
	}
	if i != len(clean) {
		t.Fatalf("clean thread holds %d frames, the cold half %d clean ones", i, len(clean))
	}
}

// TestColdestDirtyPassedOverForClean: with the coldest frame dirty, a miss
// evicts the coldest clean frame of the colder half and writes nothing.
func TestColdestDirtyPassedOverForClean(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 9)
	pool := logged(NewPool(NewSizeAwareLRU(8 * device.B1K)))
	pool.Register(seg)
	p := pids(pages)

	fixRelease(t, pool, p[0], true)
	for _, pid := range p[1:8] {
		fixRelease(t, pool, pid, false)
	}
	fixRelease(t, pool, p[8], false) // plain LRU would write p[0] back
	st := pool.Stats()
	if st.Evictions != 1 || st.Writebacks != 0 {
		t.Fatalf("%d evictions, %d writebacks; want 1 and 0", st.Evictions, st.Writebacks)
	}
	if !isResident(pool, p[0]) || isResident(pool, p[1]) {
		t.Fatal("want the dirty coldest page kept and the coldest clean one evicted")
	}
	if pool.Dirty() != 1 {
		t.Fatalf("%d dirty frames, want 1", pool.Dirty())
	}
}

// TestDirtyFrameWaitIsBounded: a dirty frame nobody revises again is kept
// back in the colder half until frames costing keepDirtyTurns times the
// chain have left it, then leaves as the coldest frame, written back once.
func TestDirtyFrameWaitIsBounded(t *testing.T) {
	const frames = 8
	wait := keepDirtyTurns * frames
	seg, pages := newSeg(t, 1, device.B1K, frames+wait+1)
	pool := logged(NewPool(NewSizeAwareLRU(frames * device.B1K)))
	pool.Register(seg)
	p := pids(pages)

	fixRelease(t, pool, p[0], true)
	for _, pid := range p[1:frames] {
		fixRelease(t, pool, pid, false)
	}
	for _, pid := range p[frames : frames+wait] {
		fixRelease(t, pool, pid, false)
	}
	if st := pool.Stats(); st.Evictions != int64(wait) || st.Writebacks != 0 || !isResident(pool, p[0]) {
		t.Fatalf("%d evictions, %d writebacks, dirty page resident: %v; want %d, 0, true", st.Evictions, st.Writebacks, isResident(pool, p[0]), wait)
	}
	fixRelease(t, pool, p[frames+wait], false)
	if st := pool.Stats(); st.Evictions != int64(wait)+1 || st.EvictWritebacks != 1 || isResident(pool, p[0]) {
		t.Fatalf("%d evictions, %d writebacks to evict, dirty page resident: %v; want %d, 1, false", st.Evictions, st.EvictWritebacks, isResident(pool, p[0]), wait+1)
	}
}

// TestWithoutLogPlainLRU: a pool without a log gate has no checkpoint to
// wait for, so the coldest frame leaves, dirty or not.
func TestWithoutLogPlainLRU(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 9)
	pool := NewPool(NewSizeAwareLRU(8 * device.B1K))
	pool.Register(seg)
	p := pids(pages)

	fixRelease(t, pool, p[0], true)
	for _, pid := range p[1:8] {
		fixRelease(t, pool, pid, false)
	}
	fixRelease(t, pool, p[8], false)
	st := pool.Stats()
	if st.Evictions != 1 || st.Writebacks != 1 || st.EvictWritebacks != 1 {
		t.Fatalf("%d evictions, %d writebacks (%d to evict); want 1, 1, 1", st.Evictions, st.Writebacks, st.EvictWritebacks)
	}
	if isResident(pool, p[0]) || !isResident(pool, p[1]) {
		t.Fatal("want the coldest page evicted although dirty")
	}
}

// TestReadsAfterLoad: pages a load dirtied must not keep reads out of the
// colder half for good once writes stop. A working set of three quarters
// of the pool, read over and over after the load, misses only on its first
// pass without a log (plain LRU), and with one stops missing once the
// load's pages have waited out keepDirtyTurns, though no checkpoint comes.
func TestReadsAfterLoad(t *testing.T) {
	const frames, loaded, working = 16, 32, 12
	for _, tc := range []struct {
		name   string
		pool   *Pool
		rounds int // passes that may miss
	}{
		{"no log", NewPool(NewSizeAwareLRU(frames * device.B1K)), 1},
		{"log", logged(NewPool(NewSizeAwareLRU(frames * device.B1K))), keepDirtyTurns*frames/working + 2},
	} {
		seg, pages := newSeg(t, 1, device.B1K, loaded+working)
		tc.pool.Register(seg)
		p := pids(pages)
		for _, pid := range p[:loaded] {
			fixRelease(t, tc.pool, pid, true)
		}
		for r := 0; r < tc.rounds; r++ {
			for _, pid := range p[loaded:] {
				fixRelease(t, tc.pool, pid, false)
			}
		}
		before := tc.pool.Stats()
		for r := 0; r < 5; r++ {
			for _, pid := range p[loaded:] {
				fixRelease(t, tc.pool, pid, false)
			}
		}
		if misses := tc.pool.Stats().Misses - before.Misses; misses != 0 {
			t.Fatalf("%s: %d misses over 5 passes of %d pages after %d passes; want 0", tc.name, misses, working, tc.rounds)
		}
	}
}

// TestWholeColdHalfDirty: a clean frame of the hot half is never given up
// for a cold dirty one. With the colder half all dirty, its coldest frame is
// written back, and only once the log gate has been forced to its stamp.
func TestWholeColdHalfDirty(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 9)
	pool := NewPool(NewSizeAwareLRU(8 * device.B1K))
	gate := &fakeGate{}
	pool.SetLogGate(gate)
	pool.Register(seg)
	p := pids(pages)

	for i, pid := range p[:4] {
		gate.lsn = uint64(100 + i)
		fixRelease(t, pool, pid, true)
	}
	for _, pid := range p[4:8] {
		fixRelease(t, pool, pid, false)
	}

	// The log cannot be forced: the eviction fails and nothing has moved.
	gate.fail = errors.New("log device down")
	if _, err := pool.Fix(p[8]); err == nil {
		t.Fatal("Fix evicted a dirty page with the log unforceable")
	}
	for _, pid := range p[:8] {
		if !isResident(pool, pid) {
			t.Fatalf("%v left the pool on a failed eviction", pid)
		}
	}
	if st := pool.Stats(); st.Writebacks != 0 || pool.Dirty() != 4 {
		t.Fatalf("%d writebacks, %d dirty after a failed eviction; want 0 and 4", st.Writebacks, pool.Dirty())
	}

	gate.fail = nil
	fixRelease(t, pool, p[8], false)
	st := pool.Stats()
	if st.Evictions != 1 || st.Writebacks != 1 || st.EvictWritebacks != 1 {
		t.Fatalf("%d evictions, %d writebacks (%d to evict); want 1, 1, 1", st.Evictions, st.Writebacks, st.EvictWritebacks)
	}
	if gate.flushes != 1 || gate.forced != 100 {
		t.Fatalf("log forced %d times up to %d; want once, to the coldest page's stamp 100", gate.flushes, gate.forced)
	}
	if isResident(pool, p[0]) {
		t.Fatal("the coldest dirty page is still resident")
	}
	for _, pid := range p[4:] {
		if !isResident(pool, pid) {
			t.Fatalf("clean page %v of the hot half was evicted", pid)
		}
	}
}

// TestCleanFirstSkipsPinned: a pinned clean frame of the colder half is
// passed over for the next clean one, and a request that the unpinned
// frames cannot cover fails before anything is evicted.
func TestCleanFirstSkipsPinned(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 9)
	pool := logged(NewPool(NewSizeAwareLRU(8 * device.B1K)))
	pool.Register(seg)
	p := pids(pages)

	held, err := pool.Fix(p[0])
	if err != nil {
		t.Fatal(err)
	}
	fixRelease(t, pool, p[1], true)
	for _, pid := range p[2:8] {
		fixRelease(t, pool, pid, false)
	}
	fixRelease(t, pool, p[8], false)
	if st := pool.Stats(); st.Evictions != 1 || st.Writebacks != 0 {
		t.Fatalf("%d evictions, %d writebacks; want 1 and 0", st.Evictions, st.Writebacks)
	}
	if !isResident(pool, p[0]) || !isResident(pool, p[1]) || isResident(pool, p[2]) {
		t.Fatal("want the pinned and the dirty page kept, the next clean one evicted")
	}
	held.Release()

	small, smallPages := newSeg(t, 1, device.B512, 8)
	big, bigPages := newSeg(t, 2, device.B8K, 1)
	pool = logged(NewPool(NewSizeAwareLRU(10 * 1024)))
	pool.Register(small)
	pool.Register(big)
	var handles []Handle
	for i, no := range smallPages {
		h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			h.MarkDirty()
		}
		if i < 6 {
			handles = append(handles, h)
		} else {
			h.Release()
		}
	}
	// The 8K page needs four 512-byte frames; two are unpinned.
	if _, err := pool.Fix(segment.PageID{Seg: 2, No: bigPages[0]}); !errors.Is(err, ErrNoVictim) {
		t.Fatalf("Fix = %v, want ErrNoVictim", err)
	}
	if st := pool.Stats(); st.Evictions != 0 || pool.Resident() != 8 {
		t.Fatalf("%d evictions, %d resident after ErrNoVictim; want 0 and 8", st.Evictions, pool.Resident())
	}
	for _, h := range handles {
		h.Release()
	}
}

// TestHalvesSplitByBudgetUnit: size-aware LRU splits its chain by bytes,
// the classic LRU by frames.
func TestHalvesSplitByBudgetUnit(t *testing.T) {
	mk := func() (big *frame, small []*frame) {
		big = &frame{data: make([]byte, device.B8K)}
		for i := 0; i < 8; i++ {
			small = append(small, &frame{data: make([]byte, device.B1K)})
		}
		return big, small
	}

	bySize := newSizeAwareLRU(64 * device.B1K)
	big, small := mk()
	bySize.OnInsert(big)
	for _, f := range small {
		bySize.OnInsert(f)
	}
	checkChain(t, &bySize.chain)
	if !big.cold {
		t.Fatal("by bytes, the 8K page is the colder half")
	}
	for i, f := range small {
		if f.cold {
			t.Fatalf("by bytes, all eight 1K pages are the hotter half; page %d is cold", i)
		}
	}

	byFrames := NewClassicLRU(16).(*classicLRU)
	big, small = mk()
	byFrames.OnInsert(big)
	for _, f := range small {
		byFrames.OnInsert(f)
	}
	checkChain(t, &byFrames.chain)
	for i, f := range small {
		if want := i < 4; f.cold != want {
			t.Fatalf("by frames, 1K page %d cold = %v, want %v", i, f.cold, want)
		}
	}
}

// TestCleanVictimPastDirtyFrames: however many dirty frames are colder,
// the coldest clean frame of the colder half is the clean thread's tail,
// where the victim search starts, so finding it costs one step.
func TestCleanVictimPastDirtyFrames(t *testing.T) {
	for _, dirty := range []int{10, 100, 1000} {
		p := NewClassicLRU(2*dirty + 2).(*classicLRU)
		for i := 0; i < dirty; i++ {
			p.OnInsert(&frame{data: make([]byte, device.B1K), dirty: true})
		}
		clean := &frame{data: make([]byte, device.B1K)}
		p.OnInsert(clean) // the newest frame of the colder half
		for i := 0; i <= dirty; i++ {
			p.OnInsert(&frame{data: make([]byte, device.B1K)})
		}
		checkChain(t, &p.chain)
		if !clean.cold || p.chain.clean.cprev != clean || p.chain.cold.prev == clean {
			t.Fatalf("%d dirty: the clean frame is not the clean thread's coldest behind colder dirty ones", dirty)
		}
		f, err := p.Victim(device.B1K, true)
		if err != nil || f != clean {
			t.Fatalf("%d dirty: Victim = %p, %v; want the clean frame", dirty, f, err)
		}
		if f, err := p.Victim(device.B1K, false); err != nil || f != p.chain.cold.prev || !f.dirty {
			t.Fatalf("%d dirty: without keepDirty, Victim = %p, %v; want the coldest frame", dirty, f, err)
		}
	}
}

// TestFlushKeepsRecencyOrder: after FlushAll cleans the colder half's dirty
// frames, they leave in plain LRU order again.
func TestFlushKeepsRecencyOrder(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 12)
	pool := logged(NewPool(NewSizeAwareLRU(8 * device.B1K)))
	pool.Register(seg)
	p := pids(pages)
	for i, pid := range p[:8] {
		fixRelease(t, pool, pid, i%2 == 0)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	checkChain(t, &pool.shards[0].policy.(*sizeAwareLRU).chain)
	for i, pid := range p[8:] {
		fixRelease(t, pool, pid, false)
		if isResident(pool, p[i]) || !isResident(pool, p[i+1]) {
			t.Fatalf("miss %d did not evict exactly the coldest page", i)
		}
	}
}

// TestColdFrameDirtiedWhilePinned: a frame that went cold while pinned and
// is dirtied there leaves the clean thread.
func TestColdFrameDirtiedWhilePinned(t *testing.T) {
	seg, pages := newSeg(t, 1, device.B1K, 9)
	pool := logged(NewPool(NewSizeAwareLRU(8 * device.B1K)))
	pool.Register(seg)
	p := pids(pages)
	h, err := pool.Fix(p[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range p[1:8] {
		fixRelease(t, pool, pid, false)
	}
	h.MarkDirty()
	h.Release()
	checkChain(t, &pool.shards[0].policy.(*sizeAwareLRU).chain)
	fixRelease(t, pool, p[8], false)
	if !isResident(pool, p[0]) || isResident(pool, p[1]) || pool.Stats().Writebacks != 0 {
		t.Fatal("want the page dirtied in the colder half kept, the coldest clean one evicted")
	}
}

// TestRevisedPagesWaitForCheckpoint is the write-amplification regression:
// a few pages revised every round, between reads streaming over more pages
// than the pool holds. With a log, clean-first keeps them until FlushAll
// writes each once; without one, plain LRU writes each back every round.
func TestRevisedPagesWaitForCheckpoint(t *testing.T) {
	const frames, revised, streamed, rounds = 16, 4, 40, 10
	run := func(pool *Pool) Stats {
		seg, pages := newSeg(t, 1, device.B1K, revised+streamed)
		pool.Register(seg)
		p := pids(pages)
		hot, stream := p[:revised], p[revised:]
		for r := 0; r < rounds; r++ {
			for i, pid := range hot {
				fixRelease(t, pool, pid, true)
				for _, s := range stream[i*streamed/revised : (i+1)*streamed/revised] {
					fixRelease(t, pool, s, false)
				}
			}
		}
		return pool.Stats()
	}

	pool := logged(NewPool(NewSizeAwareLRU(frames * device.B1K)))
	st := run(pool)
	if st.Writebacks != 0 || st.EvictWritebacks != 0 {
		t.Fatalf("%d writebacks (%d to evict) over %d rounds; want 0 before the checkpoint", st.Writebacks, st.EvictWritebacks, rounds)
	}
	if st.Hits != int64(rounds-1)*revised || pool.Dirty() != revised {
		t.Fatalf("%d hits, %d dirty; want every revision after the first round a hit and %d dirty", st.Hits, pool.Dirty(), revised)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Writebacks != revised || pool.Dirty() != 0 {
		t.Fatalf("FlushAll: %d writebacks, %d dirty; want %d and 0", st.Writebacks, pool.Dirty(), revised)
	}

	if st := run(NewPool(NewSizeAwareLRU(frames * device.B1K))); st.EvictWritebacks < (rounds-1)*revised {
		t.Fatalf("without a log, %d writebacks to evict over %d rounds; want plain LRU's %d a round", st.EvictWritebacks, rounds, revised)
	}
}

// TestChainInvariantsRandomOps drives one pool over mixed page sizes with a
// seeded mix of fixes, revisions, held pins, flushes and invalidations, and
// checks the chain's split and clean thread after every step.
func TestChainInvariantsRandomOps(t *testing.T) {
	seg1, pages1 := newSeg(t, 1, device.B1K, 48)
	seg2, pages2 := newSeg(t, 2, device.B4K, 8)
	pool := logged(NewPool(NewSizeAwareLRU(24 * device.B1K)))
	pool.Register(seg1)
	pool.Register(seg2)
	c := &pool.shards[0].policy.(*sizeAwareLRU).chain
	rng := rand.New(rand.NewSource(1))
	var held []Handle
	for step := 0; step < 5000; step++ {
		pid := segment.PageID{Seg: 1, No: pages1[rng.Intn(len(pages1))]}
		if rng.Intn(4) == 0 {
			pid = segment.PageID{Seg: 2, No: pages2[rng.Intn(len(pages2))]}
		}
		switch k := rng.Intn(100); {
		case k < 2:
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
		case k < 4:
			if err := pool.Invalidate(pid); err != nil && !errors.Is(err, ErrStillPinned) {
				t.Fatal(err)
			}
		case k < 10 && len(held) > 0:
			held[0].MarkDirty()
			held[0].Release()
			held = held[1:]
		default:
			h, err := pool.Fix(pid)
			if errors.Is(err, ErrNoVictim) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if k < 40 {
				h.MarkDirty()
			}
			if k%10 == 0 && len(held) < 4 {
				held = append(held, h)
			} else {
				h.Release()
			}
		}
		checkChain(t, c)
		dirty := 0
		for _, f := range pool.shards[0].frames {
			if f.dirty {
				dirty++
			}
		}
		if dirty != pool.Dirty() {
			t.Fatalf("step %d: %d dirty frames, the pool counts %d", step, dirty, pool.Dirty())
		}
	}
	if pool.Stats().EvictWritebacks == 0 {
		t.Fatal("the mix never evicted a dirty page")
	}
}

// TestFlushAllBesideWriters runs FlushAll against concurrent fixes that
// mark pages dirty under eviction pressure: the dirty count and every shard's
// chain must hold up.
func TestFlushAllBesideWriters(t *testing.T) {
	const nPages = 64
	seg, pages := newSeg(t, 1, device.B1K, nPages)
	pool := logged(NewShardedPool(func() Policy { return NewSizeAwareLRU(8 * device.B1K) }, 4))
	pool.Register(seg)
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				idx := (g*37 + i*11) % nPages
				h, err := pool.Fix(segment.PageID{Seg: 1, No: pages[idx]})
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", g, err)
					return
				}
				if i%3 == 0 {
					h.MarkDirty() // the bytes stay: FlushAll writes them unlatched
				}
				h.Release()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := pool.FlushAll(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, sh := range pool.shards {
		checkChain(t, &sh.policy.(*sizeAwareLRU).chain)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if pool.Dirty() != 0 {
		t.Fatalf("%d dirty frames after FlushAll", pool.Dirty())
	}
}
