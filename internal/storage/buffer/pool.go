// Package buffer implements PRIMA's database buffer (§3.3).
//
// The pool caches pages of several sizes (the five file-manager block sizes)
// in one buffer, mediates all page access through fix/unfix (pin/unpin)
// semantics, and writes dirty pages back on eviction or flush. Replacement
// is pluggable: the paper's modified LRU that handles different page sizes
// within one buffer, a statically partitioned buffer, and the classic
// single-size LRU are all provided (see policy.go).
//
// To keep concurrent molecule assemblers from serializing on one latch, the
// pool is lock-striped: frames are spread over N shards keyed by a hash of
// the page identity, each shard with its own mutex, frame table and policy
// instance. A page always hashes to the same shard, so fix/unfix of one page
// stays single-lock; pages of different shards proceed fully in parallel.
// NewPool builds the degenerate one-shard pool (exact historical semantics);
// NewShardedPool stripes the budget over many shards.
//
// The buffer is fixed: a frame that loses its page goes onto its shard's free
// list of that page size and serves the next miss of the size, so in steady
// state a fix, hit or miss, allocates nothing. Replacement decides which page
// leaves; recycling only decides where the next page's bytes come from.
package buffer

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"prima/internal/obs"
	"prima/internal/race"
	"prima/internal/storage/device"
	"prima/internal/storage/page"
	"prima/internal/storage/segment"
)

// Errors returned by the pool.
var (
	ErrNoVictim      = errors.New("buffer: cannot free enough space (pages pinned or too large)")
	ErrNotRegistered = errors.New("buffer: segment not registered")
	ErrStillPinned   = errors.New("buffer: page still pinned")
)

// LogGate is the write-ahead-log side of the WAL-before-page protocol. The
// pool stamps every dirtied frame with the log's current append position and
// forces the log up to that position before the frame's bytes can reach the
// device — so no page version ever becomes durable before the log records
// that produced it.
type LogGate interface {
	// WriteLSN returns the current append position: all records of
	// mutations performed so far lie strictly below it.
	WriteLSN() uint64
	// FlushTo makes the log durable up to (at least) lsn.
	FlushTo(lsn uint64) error
}

// frame is one page-sized piece of the buffer: resident while a page lives in
// it, on its shard's free list of that size otherwise.
type frame struct {
	pid     segment.PageID
	data    []byte
	pins    int
	dirty   bool
	pageLSN uint64 // log position that must be durable before writeback
	// prev and next thread the policy's recency chain while the frame is
	// resident; next alone threads the free list.
	prev, next *frame
}

// Handle is a fixed (pinned) page. It must be released exactly once. The
// bytes Page returns die at Release: once unpinned the frame may be recycled
// for another page, so whoever wants a record past Release copies it out.
// Under -race a recycled frame is filled with 0xDB: a reader that held on
// fails page validation instead of seeing another page's records.
type Handle struct {
	shard *shard
	frame *frame
}

// Page returns the fixed page for reading or writing. Callers that modify
// the page must call MarkDirty before unfixing.
func (h Handle) Page() page.Page { return page.Page(h.frame.data) }

// PageID returns the identity of the fixed page.
func (h Handle) PageID() segment.PageID { return h.frame.pid }

// MarkDirty records that the page content changed and must be written back.
// With a log gate installed, the frame is stamped with the log's current
// append position: the mutation's log records lie below it, so forcing the
// log to the stamp before writeback preserves WAL-before-page.
func (h Handle) MarkDirty() {
	var lsn uint64
	if g := h.shard.pool.gate; g != nil {
		lsn = g.WriteLSN()
	}
	h.shard.mu.Lock()
	h.frame.dirty = true
	if lsn > h.frame.pageLSN {
		h.frame.pageLSN = lsn
	}
	h.shard.mu.Unlock()
}

// Stats counts pool activity. Hits and misses are tracked per page size so
// experiment A1 can report per-class hit ratios. For sharded pools the
// counters are aggregated over all shards.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	// FrameAllocs counts misses that had to allocate a frame, FramesRecycled
	// those served from a free list: all but cross-size ones in a full pool.
	FrameAllocs    int64
	FramesRecycled int64
	HitsBySize     map[int]int64
	MissBySize     map[int]int64
}

// HitRatio returns hits / (hits+misses), or 0 when idle.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// sizeClasses is the number of page sizes a frame can have, sizeClass the
// index of one in device.BlockSizes: 512 bytes doubling up to 8 KiB.
const sizeClasses = len(device.BlockSizes)

func sizeClass(size int) int { return bits.TrailingZeros(uint(size / device.B512)) }

// counters is a shard's share of Stats, with the per-size counts as arrays
// indexed by size class: a fix counts without touching a map.
type counters struct {
	hits, misses, evictions, writebacks, allocs, recycled int64
	hitsBySize, missBySize                                [sizeClasses]int64
}

// shard is one lock stripe of the pool: a frame table plus a policy instance
// managing a slice of the byte budget.
type shard struct {
	pool   *Pool
	mu     sync.Mutex
	policy Policy
	frames map[segment.PageID]*frame
	// free heads the free list of each size class: frames whose page was
	// evicted or invalidated. Resident and free bytes together never exceed
	// what the policy admits as resident.
	free  [sizeClasses]*frame
	stats counters
}

func newShard(pool *Pool, policy Policy) *shard {
	return &shard{pool: pool, policy: policy, frames: make(map[segment.PageID]*frame)}
}

// takeFrame returns a frame of the given size, off the free list if it can.
func (sh *shard) takeFrame(size int) *frame {
	c := sizeClass(size)
	if f := sh.free[c]; f != nil {
		sh.free[c], f.next = f.next, nil
		sh.stats.recycled++
		return f
	}
	// Nothing of this size to reuse: the buffer grows by a frame. The policy
	// made room among the resident pages only, so what the other free lists
	// hold goes to the collector first, or the shard would exceed its budget.
	sh.free = [sizeClasses]*frame{}
	sh.stats.allocs++
	return &frame{data: make([]byte, size)}
}

// freeFrame puts f, out of the policy and the frame table, on its free list.
func (sh *shard) freeFrame(f *frame) {
	if race.Enabled { // poison: see Handle
		for i := range f.data {
			f.data[i] = 0xDB
		}
	}
	c := sizeClass(len(f.data))
	*f = frame{data: f.data, next: sh.free[c]}
	sh.free[c] = f
}

// Pool is the database buffer. It is safe for concurrent use; individual
// fixed pages are not latched, so callers that write pages coordinate among
// themselves (the access system serializes writers per structure).
type Pool struct {
	shards []*shard
	mask   uint32 // len(shards)-1; shard count is a power of two

	segMu    sync.RWMutex
	segments map[segment.ID]*segment.Segment

	// gate, when set, enforces WAL-before-page on every writeback. Installed
	// once at open time, before the pool sees concurrent traffic.
	gate LogGate

	// missNs, when set, observes the latency of each miss-path page read
	// (device read plus validation), in nanoseconds. Installed once at open
	// time, like gate.
	missNs *obs.Histogram
}

// SetLogGate installs the write-ahead log the pool must force before writing
// dirty pages. Call before the pool is used concurrently.
func (p *Pool) SetLogGate(g LogGate) { p.gate = g }

// SetMissHist installs the latency observer for miss-path page reads. Call
// before the pool is used concurrently.
func (p *Pool) SetMissHist(h *obs.Histogram) { p.missNs = h }

// NewPool creates a single-shard buffer pool with the given replacement
// policy — the fully serialized configuration, kept for tools and tests that
// reason about exact eviction order.
func NewPool(p Policy) *Pool { return NewShardedPool(func() Policy { return p }, 1) }

// RoundShards returns the shard count a sharded pool will actually use for
// a request of n: the next power of two, minimum 1. Budget planners divide
// by this so the per-shard slice matches the real stripe count.
func RoundShards(n int) int {
	shards := 1
	for shards < n {
		shards <<= 1
	}
	return shards
}

// NewShardedPool creates a lock-striped pool of n shards (rounded up to a
// power of two, minimum 1); factory is called once per shard so every stripe
// owns an independent policy instance over its slice of the budget.
func NewShardedPool(factory func() Policy, n int) *Pool {
	shards := RoundShards(n)
	pool := &Pool{segments: make(map[segment.ID]*segment.Segment), mask: uint32(shards - 1)}
	pool.shards = make([]*shard, shards)
	for i := range pool.shards {
		pool.shards[i] = newShard(pool, factory())
	}
	return pool
}

// shardOf hashes a page identity onto its stripe.
func (p *Pool) shardOf(pid segment.PageID) *shard {
	if p.mask == 0 {
		return p.shards[0]
	}
	h := uint32(pid.Seg)*0x9E3779B1 ^ pid.No*0x85EBCA77
	h ^= h >> 16
	return p.shards[h&p.mask]
}

// Shards returns the number of lock stripes.
func (p *Pool) Shards() int { return len(p.shards) }

// Register makes a segment's pages reachable through the pool.
func (p *Pool) Register(s *segment.Segment) {
	p.segMu.Lock()
	p.segments[s.ID()] = s
	p.segMu.Unlock()
}

func (p *Pool) segment(id segment.ID) (*segment.Segment, bool) {
	p.segMu.RLock()
	s, ok := p.segments[id]
	p.segMu.RUnlock()
	return s, ok
}

// Stats returns a snapshot of the pool counters, aggregated over all shards.
// Each shard is snapshotted under its own lock, so under concurrent load the
// aggregate is per-shard-consistent, not a single instant across the pool —
// quiesce the pool when exact counts matter (the experiment harnesses do).
func (p *Pool) Stats() Stats {
	out := Stats{HitsBySize: make(map[int]int64), MissBySize: make(map[int]int64)}
	for _, sh := range p.shards {
		sh.mu.Lock()
		c := sh.stats
		sh.mu.Unlock()
		out.Hits += c.hits
		out.Misses += c.misses
		out.Evictions += c.evictions
		out.Writebacks += c.writebacks
		out.FrameAllocs += c.allocs
		out.FramesRecycled += c.recycled
		for i, size := range device.BlockSizes {
			if c.hitsBySize[i] != 0 {
				out.HitsBySize[size] += c.hitsBySize[i]
			}
			if c.missBySize[i] != 0 {
				out.MissBySize[size] += c.missBySize[i]
			}
		}
	}
	return out
}

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.stats = counters{}
		sh.mu.Unlock()
	}
}

// Resident returns the number of resident pages.
func (p *Pool) Resident() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// Pinned returns the number of currently pinned frames — the pin-accounting
// probe behind the atom cache tests: a cache hit must leave the pool
// untouched, so reads served above the buffer neither fix pages nor show up
// here.
func (p *Pool) Pinned() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Fix pins the page into the buffer, reading it from its segment on a miss,
// and returns a handle. The page must exist on disk (use FixNew for pages
// that were just allocated and never written).
func (p *Pool) Fix(pid segment.PageID) (Handle, error) {
	return p.shardOf(pid).fix(pid, false)
}

// FixNew pins a freshly allocated page without reading the device. The frame
// starts zeroed and dirty; the caller must Init the page before use.
func (p *Pool) FixNew(pid segment.PageID) (Handle, error) {
	return p.shardOf(pid).fix(pid, true)
}

func (sh *shard) fix(pid segment.PageID, fresh bool) (Handle, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	if f, ok := sh.frames[pid]; ok {
		f.pins++
		sh.policy.OnTouch(f)
		sh.stats.hits++
		sh.stats.hitsBySize[sizeClass(len(f.data))]++
		return Handle{shard: sh, frame: f}, nil
	}

	seg, ok := sh.pool.segment(pid.Seg)
	if !ok {
		return Handle{}, fmt.Errorf("%w: %v", ErrNotRegistered, pid)
	}
	size := seg.PageSize()
	sh.stats.misses++
	sh.stats.missBySize[sizeClass(size)]++

	if err := sh.makeRoomLocked(size); err != nil {
		return Handle{}, err
	}

	f := sh.takeFrame(size)
	if fresh {
		clear(f.data)
		f.dirty = true
		if g := sh.pool.gate; g != nil {
			f.pageLSN = g.WriteLSN()
		}
	} else {
		readStart := time.Now()
		err := seg.ReadPage(pid.No, f.data)
		if err == nil {
			err = page.Page(f.data).Validate()
		}
		if err != nil {
			sh.freeFrame(f)
			return Handle{}, fmt.Errorf("buffer: fix %v: %w", pid, err)
		}
		sh.pool.missNs.ObserveSince(readStart)
	}
	f.pid, f.pins = pid, 1
	sh.frames[pid] = f
	sh.policy.OnInsert(f)
	return Handle{shard: sh, frame: f}, nil
}

// makeRoomLocked evicts the victims the shard's policy names, one at a time,
// until a page of the given size fits. Dirty victims are written back.
func (sh *shard) makeRoomLocked(size int) error {
	for {
		f, err := sh.policy.Victim(size)
		if f == nil {
			return err
		}
		if f.dirty {
			if err := sh.writebackLocked(f); err != nil {
				return err
			}
		}
		sh.policy.OnRemove(f)
		delete(sh.frames, f.pid)
		sh.freeFrame(f)
		sh.stats.evictions++
	}
}

func (sh *shard) writebackLocked(f *frame) error {
	seg, ok := sh.pool.segment(f.pid.Seg)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotRegistered, f.pid)
	}
	if g := sh.pool.gate; g != nil && f.pageLSN > 0 {
		if err := g.FlushTo(f.pageLSN); err != nil {
			return fmt.Errorf("buffer: force log for %v: %w", f.pid, err)
		}
	}
	page.Page(f.data).SealChecksum()
	if err := seg.WritePage(f.pid.No, f.data); err != nil {
		return fmt.Errorf("buffer: writeback %v: %w", f.pid, err)
	}
	f.dirty = false
	sh.stats.writebacks++
	return nil
}

// Release unpins the page; Handle's comment says what becomes of its bytes.
func (h Handle) Release() {
	h.shard.mu.Lock()
	if h.frame.pins > 0 {
		h.frame.pins--
	}
	h.shard.mu.Unlock()
}

// Flush writes the page back if resident and dirty.
func (p *Pool) Flush(pid segment.PageID) error {
	sh := p.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[pid]
	if !ok || !f.dirty {
		return nil
	}
	return sh.writebackLocked(f)
}

// FlushAll writes every dirty resident page back to its segment.
func (p *Pool) FlushAll() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				if err := sh.writebackLocked(f); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Invalidate drops a page from the pool without writing it back, e.g. after
// the page was freed. It fails if the page is pinned.
func (p *Pool) Invalidate(pid segment.PageID) error {
	sh := p.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[pid]
	if !ok {
		return nil
	}
	if f.pins > 0 {
		return fmt.Errorf("%w: %v", ErrStillPinned, pid)
	}
	sh.policy.OnRemove(f)
	delete(sh.frames, pid)
	sh.freeFrame(f)
	return nil
}

// Close flushes all dirty pages and drops every frame.
func (p *Pool) Close() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				if err := sh.writebackLocked(f); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
			sh.policy.OnRemove(f)
		}
		sh.frames = make(map[segment.PageID]*frame)
		sh.free = [sizeClasses]*frame{}
		sh.mu.Unlock()
	}
	return nil
}
