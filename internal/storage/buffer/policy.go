package buffer

import "fmt"

// Policy is a page replacement strategy. The paper (§3.3) observes that
// classic algorithms are "only tailored to one page size" and discusses two
// ways out: statically partitioning the buffer by page size (inflexible when
// reference patterns change) or modifying LRU to handle different page sizes
// in one pool — the road PRIMA takes. All three variants are implemented so
// experiment A1 can compare them.
//
// When the pool has a write-ahead log, all three replace clean pages first
// within the colder half of their recency order (CFLRU, Park et al. 2006,
// with its window fixed at half): a dirty page there is written back and
// evicted only once that half holds no clean unpinned page, or once it has
// sat out keepDirtyTurns turnovers of its chain since it went cold. A design
// that is read widely while a small part of it is revised over and over
// keeps the revised pages until the checkpoint writes each once, instead of
// writing one back per revision; the hotter half stays plain LRU, so pages
// every request walks are never given up for a cold dirty one; and pages a
// load dirtied and nobody revises again leave after a bounded wait, so a
// database that stops writing, whose log never grows to the next
// checkpoint, gets its whole buffer back for reads. Without a log the
// policies are plain LRU: nothing but Close would checkpoint. With no dirty
// page resident the two orders agree. "Half" and a turnover are measured in
// the unit each policy budgets: bytes, or frames for the classic LRU.
//
// Policies are driven by the pool under the pool's lock; they are not safe
// for standalone concurrent use.
type Policy interface {
	// OnInsert records that f became resident.
	OnInsert(f *frame)
	// OnTouch records a reference to resident frame f.
	OnTouch(f *frame)
	// OnRemove records that f left the pool.
	OnRemove(f *frame)
	// OnCleaned records that writebacks made resident frames clean without
	// evicting them.
	OnCleaned()
	// Victim returns the next frame that must leave the pool so a new page
	// of the given size fits, nil once it does. Pinned frames are skipped;
	// with keepDirty set, the colder half's clean frames go before its dirty
	// ones. It returns ErrNoVictim, before anything has been evicted, if the
	// space cannot be freed.
	Victim(size int, keepDirty bool) (*frame, error)
}

// chain is the recency order of a policy's frames, split in two halves by
// cost. The hot half is the longest run of most recently used frames that
// costs at most half of all of them; the cold half is the rest. Each half is
// a ring threaded through the frames' prev/next and closed by its root:
// root.next is the half's most recently used frame, root.prev its coldest.
// The cold half's clean frames are threaded a second time, in the same
// order, through cprev/cnext, so the coldest clean frame is found without
// walking past dirty ones: every operation but OnCleaned costs O(1) plus
// the frames a victim search passes over, which are pinned ones, and the
// cold half's clean ones a second time when they could not cover the need
// alone.
type chain struct {
	hot, cold, clean frame // ring roots
	hotCost, cost    int64 // of the hot half, of all frames
	// left is the cost of every frame that has left the chain: the clock a
	// dirty cold frame's wait is measured on (frame.coldAt).
	left     int64
	byFrames bool // a frame costs 1, not its bytes
}

// keepDirtyTurns bounds how long a dirty frame is kept back in the cold
// half: once frames costing keepDirtyTurns times the chain have left it
// since the frame went cold, it leaves in plain LRU order. Plain LRU keeps
// a cold frame about half a turnover. On checkout_cold, write amplification
// was 10.8 at 2 turnovers, 6.4 at 4 and 6.2 at 8, against 6.6 without a
// bound and 20.7 under plain LRU (EXPERIMENTS.md).
const keepDirtyTurns = 4

func (c *chain) init(byFrames bool) {
	for _, r := range []*frame{&c.hot, &c.cold} {
		r.prev, r.next = r, r
	}
	c.clean.cprev, c.clean.cnext = &c.clean, &c.clean
	c.byFrames = byFrames
}

func (c *chain) costOf(f *frame) int64 {
	if c.byFrames {
		return 1
	}
	return int64(len(f.data))
}

// linkAfter puts f into at's ring right after at.
func linkAfter(at, f *frame) {
	f.prev, f.next = at, at.next
	f.prev.next, f.next.prev = f, f
}

func unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// threadAfter puts f into at's clean thread right after at.
func threadAfter(at, f *frame) {
	f.cprev, f.cnext = at, at.cnext
	f.cprev.cnext, f.cnext.cprev = f, f
}

// unthread takes f off the clean thread, if it is on it: a frame being
// dirtied or leaving the cold half.
func unthread(f *frame) {
	if f.cnext == nil {
		return
	}
	f.cprev.cnext, f.cnext.cprev = f.cnext, f.cprev
	f.cprev, f.cnext = nil, nil
}

func (c *chain) insert(f *frame) {
	linkAfter(&c.hot, f)
	c.hotCost += c.costOf(f)
	c.cost += c.costOf(f)
	c.balance()
}

func (c *chain) touch(f *frame) {
	unlink(f)
	linkAfter(&c.hot, f)
	if f.cold {
		f.cold = false
		unthread(f)
		c.hotCost += c.costOf(f)
		c.balance()
	}
}

func (c *chain) remove(f *frame) {
	unlink(f)
	unthread(f)
	c.cost -= c.costOf(f)
	c.left += c.costOf(f)
	if !f.cold {
		c.hotCost -= c.costOf(f)
	}
	c.balance()
}

// rethread rebuilds the clean thread from the cold ring, after writebacks
// cleaned cold frames in no particular order.
func (c *chain) rethread() {
	c.clean.cprev, c.clean.cnext = &c.clean, &c.clean
	for f := c.cold.next; f != &c.cold; f = f.next {
		if !f.dirty {
			threadAfter(c.clean.cprev, f)
		}
	}
}

// balance moves the boundary back to the middle: the coldest hot frames go
// cold while the hot half costs more than half, the newest cold frame goes
// hot while the hot half has room for it.
func (c *chain) balance() {
	for 2*c.hotCost > c.cost {
		f := c.hot.prev
		unlink(f)
		linkAfter(&c.cold, f)
		f.cold = true
		f.coldAt = c.left
		if !f.dirty {
			threadAfter(&c.clean, f)
		}
		c.hotCost -= c.costOf(f)
	}
	for f := c.cold.next; f != &c.cold && 2*(c.hotCost+c.costOf(f)) <= c.cost; f = c.cold.next {
		unlink(f)
		unthread(f)
		linkAfter(c.hot.prev, f)
		f.cold = false
		c.hotCost += c.costOf(f)
	}
}

// victim returns the next frame to evict, provided the unpinned frames
// cover need, each counting its cost towards it. The cold half comes first,
// coldest first: with keepDirty its clean frames, then its dirty ones. The
// hot half comes only once the cold one is all pinned. The cold ring is in
// the order its frames went cold, so when a dirty frame has waited out
// keepDirtyTurns it is the coldest of all, and this search is plain LRU.
func (c *chain) victim(need int64, keepDirty bool) *frame {
	if f := c.cold.prev; keepDirty && f != &c.cold && f.dirty && c.left-f.coldAt >= keepDirtyTurns*c.cost {
		keepDirty = false
	}
	var victim *frame
	take := func(f *frame) bool {
		if f.pins > 0 {
			return false
		}
		if victim == nil {
			victim = f
		}
		need -= c.costOf(f)
		return need <= 0
	}
	if keepDirty {
		for f := c.clean.cprev; f != &c.clean; f = f.cprev {
			if take(f) {
				return victim
			}
		}
	}
	for f := c.cold.prev; f != &c.cold; f = f.prev {
		if (f.dirty || !keepDirty) && take(f) { // with keepDirty the clean ones were counted above
			return victim
		}
	}
	for f := c.hot.prev; f != &c.hot; f = f.prev {
		if take(f) {
			return victim
		}
	}
	return nil
}

// --- size-aware LRU (PRIMA's modified LRU) ---------------------------------

// sizeAwareLRU keeps a single recency chain over pages of all sizes and
// charges residency in bytes: to admit an incoming page it evicts from the
// cold half until enough bytes are free. This is the paper's "well-known LRU
// algorithm altered in an appropriate way".
type sizeAwareLRU struct {
	capacity int64 // bytes
	chain    chain // costs in bytes: chain.cost is what is resident
}

// NewSizeAwareLRU returns PRIMA's modified LRU with a byte budget.
func NewSizeAwareLRU(capacityBytes int64) Policy { return newSizeAwareLRU(capacityBytes) }

func newSizeAwareLRU(capacity int64) *sizeAwareLRU {
	p := &sizeAwareLRU{capacity: capacity}
	p.chain.init(false)
	return p
}

func (p *sizeAwareLRU) OnInsert(f *frame) { p.chain.insert(f) }
func (p *sizeAwareLRU) OnTouch(f *frame)  { p.chain.touch(f) }
func (p *sizeAwareLRU) OnRemove(f *frame) { p.chain.remove(f) }
func (p *sizeAwareLRU) OnCleaned()        { p.chain.rethread() }

func (p *sizeAwareLRU) Victim(size int, keepDirty bool) (*frame, error) {
	if int64(size) > p.capacity {
		return nil, fmt.Errorf("%w: page of %d bytes exceeds pool capacity %d", ErrNoVictim, size, p.capacity)
	}
	need := int64(size) - (p.capacity - p.chain.cost)
	if need <= 0 {
		return nil, nil
	}
	f := p.chain.victim(need, keepDirty)
	if f == nil {
		return nil, fmt.Errorf("%w: %d bytes needed, too few unpinned frames", ErrNoVictim, need)
	}
	return f, nil
}

// --- statically partitioned LRU --------------------------------------------

// partitionedLRU divides the buffer into independent parts, one per page
// size, "each of which managed by a dedicated replacement algorithm" — the
// static alternative the paper rejects as "not very flexible when reference
// patterns change".
type partitionedLRU struct {
	parts map[int]*sizeAwareLRU // page size -> dedicated chain
}

// NewPartitionedLRU builds a statically partitioned policy. shares maps a
// page size to the byte budget of its partition. Pages of sizes that have no
// partition cannot enter the pool.
func NewPartitionedLRU(shares map[int]int64) Policy {
	parts := make(map[int]*sizeAwareLRU, len(shares))
	for size, budget := range shares {
		parts[size] = newSizeAwareLRU(budget)
	}
	return &partitionedLRU{parts: parts}
}

func (p *partitionedLRU) part(size int) *sizeAwareLRU { return p.parts[size] }

func (p *partitionedLRU) OnInsert(f *frame) { p.part(len(f.data)).OnInsert(f) }
func (p *partitionedLRU) OnTouch(f *frame)  { p.part(len(f.data)).OnTouch(f) }
func (p *partitionedLRU) OnRemove(f *frame) { p.part(len(f.data)).OnRemove(f) }

func (p *partitionedLRU) OnCleaned() {
	for _, part := range p.parts {
		part.OnCleaned()
	}
}

func (p *partitionedLRU) Victim(size int, keepDirty bool) (*frame, error) {
	part := p.part(size)
	if part == nil {
		return nil, fmt.Errorf("%w: no partition for page size %d", ErrNoVictim, size)
	}
	return part.Victim(size, keepDirty)
}

// --- classic frame-count LRU ------------------------------------------------

// classicLRU is the textbook algorithm "tailored to one page size": it
// budgets frames, not bytes. With uniform, clean pages it is exactly LRU;
// with mixed sizes it misbehaves (an 8K page costs the same as a 512-byte page),
// which is the deficiency motivating the modified algorithm.
type classicLRU struct {
	maxFrames int
	chain     chain // costs in frames
}

// NewClassicLRU returns a frame-count LRU holding at most maxFrames pages.
func NewClassicLRU(maxFrames int) Policy {
	p := &classicLRU{maxFrames: maxFrames}
	p.chain.init(true)
	return p
}

func (p *classicLRU) OnInsert(f *frame) { p.chain.insert(f) }
func (p *classicLRU) OnTouch(f *frame)  { p.chain.touch(f) }
func (p *classicLRU) OnRemove(f *frame) { p.chain.remove(f) }
func (p *classicLRU) OnCleaned()        { p.chain.rethread() }

func (p *classicLRU) Victim(_ int, keepDirty bool) (*frame, error) {
	need := p.chain.cost - int64(p.maxFrames) + 1
	if need <= 0 {
		return nil, nil
	}
	f := p.chain.victim(need, keepDirty)
	if f == nil {
		return nil, fmt.Errorf("%w: all frames pinned", ErrNoVictim)
	}
	return f, nil
}
