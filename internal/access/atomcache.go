package access

import (
	"sync"
	"sync/atomic"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
)

// Atom cache (the "atom buffer" above the page buffer that PRIMA's
// architecture calls for): repeated checkouts of the same design objects —
// the dominant access pattern of CAD/FEA workloads — must not pay a directory
// probe, a page fix and a record copy per atom on every read. The cache keeps
// checked record images keyed by logical address — the unit the whole read
// path carries: assembly follows references straight off them and the wire
// appends them to its frames, so a hit is handed out as it is, shared and
// immutable, and is never decoded on the server. It is lock-striped like the
// buffer pool so concurrent molecule assemblers do not serialize on one
// latch, and bounded by a byte budget with per-shard LRU replacement: the
// budget is configured in atoms (the user-facing unit, acAtomBytes each) and
// every entry is charged its image length plus acEntryOverhead, so wide CAD
// atoms displace proportionally more narrow ones and the accounted bytes are
// what the cache really holds. Replacement is LRU with a scan-resistant
// insertion rule: a hit promotes an entry to the hot end, but a new entry is
// linked at the cold end — a full-design checkout larger than the budget then
// evicts what it just inserted instead of flushing the resident set one step
// ahead of its next use, and a cyclic scan of 2x the budget hits on half its
// reads, not on none. Every acHotEvery-th insertion of a shard links at the
// hot end so the resident set still turns over when the working set moves.
// Negative entries remember that an address does not exist — existence
// probes against deleted atoms (frequent in back-reference maintenance and
// cursor filtering) then skip the directory miss path.
//
// Correctness under concurrent DML rests on per-address version stamps:
// every mutation bumps the address's stamp *before* it drops the cache
// entry, and readers capture the stamp before touching page bytes (or
// probing the directory, for negative entries) and only publish their
// result if the stamp is unchanged at insert time (checked under the shard
// lock). A read raced by a writer therefore either fails the stamp check,
// or is inserted before the writer's drop and removed by it — a stale value
// can never outlive the mutation that made it stale. Inserts and
// resurrections bump the stamp too, so a negative entry can never outlive
// the atom coming (back) into existence. Stamps are striped over a fixed
// array (collisions only cause spurious re-reads, never stale hits), so
// the stamp table stays O(1) in the database size.

// acStampStripes is the size of the version-stamp array (power of two).
const acStampStripes = 4096

// DefaultAtomCacheAtoms is the default atom budget of the atom cache.
const DefaultAtomCacheAtoms = 8192

// acAtomBytes converts the atom-denominated budget into bytes: each
// configured atom buys this many bytes of images and entry overhead.
const acAtomBytes = 256

// acEntryOverhead is the bytes charged per entry on top of its image: the
// entry itself, its slot in the shard's map and the allocator's rounding of
// the image.
const acEntryOverhead = 96

// acHotEvery is how often a shard links a new entry at the hot end instead
// of the cold one.
const acHotEvery = 32

// AtomCacheStats is a snapshot of the atom cache counters.
type AtomCacheStats struct {
	Hits          uint64 // reads served without a page fix or record copy
	Misses        uint64 // reads that went to the buffer pool
	Invalidations uint64 // cached atoms dropped by writes
	Evictions     uint64 // cached atoms dropped by the LRU budget
	Atoms         int    // currently cached atoms (excluding negative entries)
	Budget        int    // configured atom budget (0 = disabled)
	Bytes         int    // bytes charged for what is cached: images plus entry overhead
}

// acCounters is the cache's statistics block. It lives on the System, not
// the cache instance, so counters stay cumulative across resizes and
// disable/re-enable cycles.
type acCounters struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

// acEntry is one cached result: a checked record image, or — with the zero
// image — the negative fact that the address does not exist. prev and next
// link the entry into its shard's recency ring.
type acEntry struct {
	a          addr.LogicalAddr
	img        atom.Image
	prev, next *acEntry
}

// cost is what the entry is charged against the byte budget.
func (e *acEntry) cost() int { return acEntryOverhead + len(e.img.Bytes()) }

// acShard is one lock stripe: a recency ring over its slice of the byte
// budget. ring is the sentinel: ring.next is the hot end, ring.prev the cold.
type acShard struct {
	mu       sync.Mutex
	capBytes int
	bytes    int
	ring     acEntry
	entries  map[addr.LogicalAddr]*acEntry
	inserts  uint32 // new entries linked so far; see acHotEvery
}

func (sh *acShard) unlink(e *acEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// linkAfter links e behind at: behind the sentinel is the hot end, behind the
// coldest entry (ring.prev) the cold end.
func (sh *acShard) linkAfter(at, e *acEntry) {
	e.prev, e.next = at, at.next
	at.next.prev, at.next = e, e
}

// drop removes e from the shard.
func (sh *acShard) drop(e *acEntry) {
	sh.unlink(e)
	delete(sh.entries, e.a)
	sh.bytes -= e.cost()
}

// atomCache is the sharded atom cache. The System holds it through
// an atomic pointer so resizing (or disabling) swaps the whole structure
// without locking readers; version stamps and counters move to the new
// instance so invalidation protection and statistics stay continuous.
type atomCache struct {
	shards []*acShard
	mask   uint32
	budget int
	stamps *[acStampStripes]atomic.Uint64
	stats  *acCounters // owned by the System
}

// newAtomCache builds a cache of `budget` atoms over n lock stripes
// (rounded to a power of two; shrunk so every stripe holds at least a few
// atoms). stamps is carried over from a predecessor cache, if any, so
// in-flight readers that captured a stamp from the old instance still
// conflict correctly with writers bumping the new one.
func newAtomCache(budget, n int, stamps *[acStampStripes]atomic.Uint64, stats *acCounters) *atomCache {
	if budget <= 0 {
		return nil
	}
	for n > 1 && budget/n < 8 {
		n /= 2
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	if stamps == nil {
		stamps = new([acStampStripes]atomic.Uint64)
	}
	c := &atomCache{
		shards: make([]*acShard, shards),
		mask:   uint32(shards - 1),
		budget: budget,
		stamps: stamps,
		stats:  stats,
	}
	per := budget * acAtomBytes / shards
	for i := range c.shards {
		sh := &acShard{capBytes: per, entries: make(map[addr.LogicalAddr]*acEntry)}
		sh.ring.prev, sh.ring.next = &sh.ring, &sh.ring
		c.shards[i] = sh
	}
	return c
}

// acHash mixes a logical address onto the shard/stamp index space.
func acHash(a addr.LogicalAddr) uint32 {
	h := uint64(a) * 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}

func (c *atomCache) shardOf(a addr.LogicalAddr) *acShard {
	return c.shards[acHash(a)&c.mask]
}

func (c *atomCache) stampOf(a addr.LogicalAddr) *atomic.Uint64 {
	return &c.stamps[acHash(a)&(acStampStripes-1)]
}

// get returns the cached result for a, if present: ok with an image is a hit
// (shared and immutable); ok with the zero image is a negative hit (the
// address is known not to exist).
func (c *atomCache) get(a addr.LogicalAddr) (atom.Image, bool) {
	sh := c.shardOf(a)
	sh.mu.Lock()
	e, ok := sh.entries[a]
	if !ok {
		sh.mu.Unlock()
		c.stats.misses.Add(1)
		return atom.Image{}, false
	}
	sh.unlink(e)
	sh.linkAfter(&sh.ring, e)
	img := e.img
	sh.mu.Unlock()
	c.stats.hits.Add(1)
	return img, true
}

// holds reports whether a has an entry, without counting a lookup.
func (c *atomCache) holds(a addr.LogicalAddr) bool {
	sh := c.shardOf(a)
	sh.mu.Lock()
	_, ok := sh.entries[a]
	sh.mu.Unlock()
	return ok
}

// stamp captures a's version stamp. Readers call it before fixing any page
// of the atom's record (or probing the directory); put refuses the result if
// the stamp moved since.
func (c *atomCache) stamp(a addr.LogicalAddr) uint64 {
	return c.stampOf(a).Load()
}

// put publishes a result captured under the given stamp: an owned, checked
// image, or a negative entry with the zero image. The stamp is re-checked
// under the shard lock: a concurrent writer has either already bumped it (the
// result is discarded) or will drop the entry after its own bump (the
// transient entry cannot survive the write).
func (c *atomCache) put(a addr.LogicalAddr, img atom.Image, stamp uint64) {
	sh := c.shardOf(a)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.stampOf(a).Load() != stamp {
		return
	}
	e, known := sh.entries[a]
	if known {
		sh.unlink(e)
		sh.bytes -= e.cost()
	} else {
		e = &acEntry{a: a}
		sh.entries[a] = e
		sh.inserts++
	}
	e.img = img
	// Evict from the cold end first, then link: the new entry is never its
	// own victim, so even one over-budget atom stays cached alone.
	for sh.bytes+e.cost() > sh.capBytes && sh.ring.prev != &sh.ring {
		sh.drop(sh.ring.prev)
		c.stats.evictions.Add(1)
	}
	sh.bytes += e.cost()
	if known || sh.inserts%acHotEvery == 0 {
		sh.linkAfter(&sh.ring, e)
	} else {
		sh.linkAfter(sh.ring.prev, e)
	}
}

// invalidate is the write barrier: it bumps a's version stamp first (so
// readers mid-read cannot publish a pre-write image — or a pre-insert
// negative entry — afterwards) and then drops any cached entry under the
// shard lock.
func (c *atomCache) invalidate(a addr.LogicalAddr) {
	c.stampOf(a).Add(1)
	sh := c.shardOf(a)
	sh.mu.Lock()
	if e, ok := sh.entries[a]; ok {
		sh.drop(e)
		c.stats.invalidations.Add(1)
	}
	sh.mu.Unlock()
}

// size returns the number of cached atoms (negative entries excluded) and
// the accounted bytes.
func (c *atomCache) size() (atoms, bytes int) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for e := sh.ring.next; e != &sh.ring; e = e.next {
			if !e.img.IsZero() {
				atoms++
			}
		}
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return atoms, bytes
}

// --- System integration -------------------------------------------------------

// cache returns the live cache instance, or nil when disabled.
func (s *System) cache() *atomCache { return s.atoms.Load() }

// cacheInvalidate is called by every mutation after the primary record
// changed (insert, update, delete, resurrect); see atomCache.invalidate for
// why the post-write barrier alone is sufficient.
func (s *System) cacheInvalidate(a addr.LogicalAddr) {
	if c := s.atoms.Load(); c != nil {
		c.invalidate(a)
	}
}

// SetAtomCacheSize resizes the atom cache to the given atom budget;
// n <= 0 disables it and drops all cached atoms. The counters live on the
// System, so the statistics stay cumulative across resizes and
// disable/re-enable cycles.
func (s *System) SetAtomCacheSize(n int) {
	old := s.atoms.Load()
	var stamps *[acStampStripes]atomic.Uint64
	if old != nil {
		stamps = old.stamps
	}
	s.atoms.Store(newAtomCache(n, s.cfg.BufferShards, stamps, &s.acStats))
}

// AtomCacheStats returns a snapshot of the atom cache counters.
// Counters accumulate over the System's lifetime; Atoms, Bytes and Budget
// reflect the live configuration (all 0 while disabled).
func (s *System) AtomCacheStats() AtomCacheStats {
	st := AtomCacheStats{
		Hits:          s.acStats.hits.Load(),
		Misses:        s.acStats.misses.Load(),
		Invalidations: s.acStats.invalidations.Load(),
		Evictions:     s.acStats.evictions.Load(),
	}
	if c := s.atoms.Load(); c != nil {
		st.Atoms, st.Bytes = c.size()
		st.Budget = c.budget
	}
	return st
}
