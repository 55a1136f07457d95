package buffer

import "fmt"

// Policy is a page replacement strategy. The paper (§3.3) observes that
// classic algorithms are "only tailored to one page size" and discusses two
// ways out: statically partitioning the buffer by page size (inflexible when
// reference patterns change) or modifying LRU to handle different page sizes
// in one pool — the road PRIMA takes. All three variants are implemented so
// experiment A1 can compare them.
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
	// Victim returns the next frame that must leave the pool so a new page
	// of the given size fits, nil once it does. Pinned frames are skipped.
	// It returns ErrNoVictim, before anything has been evicted, if the
	// space cannot be freed.
	Victim(size int) (*frame, error)
}

// chain is a recency chain threaded through the frames themselves, a ring
// closed by root: root.next is the most recently used frame, root.prev the
// coldest.
type chain struct {
	root frame
	n    int
}

func (c *chain) pushFront(f *frame) {
	if c.root.next == nil {
		c.root.next, c.root.prev = &c.root, &c.root
	}
	f.prev, f.next = &c.root, c.root.next
	f.prev.next, f.next.prev = f, f
	c.n++
}

func (c *chain) remove(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
	c.n--
}

// coldest returns the coldest unpinned frame, provided the unpinned frames
// from the cold end on cover need, each counting cost(f) towards it.
func (c *chain) coldest(need int64, cost func(f *frame) int64) *frame {
	var victim *frame
	for f := c.root.prev; f != nil && f != &c.root && need > 0; f = f.prev {
		if f.pins > 0 {
			continue
		}
		if victim == nil {
			victim = f
		}
		need -= cost(f)
	}
	if need > 0 {
		return nil
	}
	return victim
}

func frameBytes(f *frame) int64 { return int64(len(f.data)) }
func oneFrame(*frame) int64     { return 1 }

// --- size-aware LRU (PRIMA's modified LRU) ---------------------------------

// sizeAwareLRU keeps a single recency chain over pages of all sizes and
// charges residency in bytes: to admit an incoming page it evicts from the
// cold end until enough bytes are free. This is the paper's "well-known LRU
// algorithm altered in an appropriate way".
type sizeAwareLRU struct {
	capacity int64 // bytes
	resident int64 // bytes currently held
	chain    chain
}

// NewSizeAwareLRU returns PRIMA's modified LRU with a byte budget.
func NewSizeAwareLRU(capacityBytes int64) Policy {
	return &sizeAwareLRU{capacity: capacityBytes}
}

func (p *sizeAwareLRU) OnInsert(f *frame) {
	p.chain.pushFront(f)
	p.resident += int64(len(f.data))
}

func (p *sizeAwareLRU) OnTouch(f *frame) { p.chain.remove(f); p.chain.pushFront(f) }

func (p *sizeAwareLRU) OnRemove(f *frame) {
	p.chain.remove(f)
	p.resident -= int64(len(f.data))
}

func (p *sizeAwareLRU) Victim(size int) (*frame, error) {
	if int64(size) > p.capacity {
		return nil, fmt.Errorf("%w: page of %d bytes exceeds pool capacity %d", ErrNoVictim, size, p.capacity)
	}
	need := int64(size) - (p.capacity - p.resident)
	if need <= 0 {
		return nil, nil
	}
	f := p.chain.coldest(need, frameBytes)
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
		parts[size] = &sizeAwareLRU{capacity: budget}
	}
	return &partitionedLRU{parts: parts}
}

func (p *partitionedLRU) part(size int) *sizeAwareLRU { return p.parts[size] }

func (p *partitionedLRU) OnInsert(f *frame) { p.part(len(f.data)).OnInsert(f) }
func (p *partitionedLRU) OnTouch(f *frame)  { p.part(len(f.data)).OnTouch(f) }
func (p *partitionedLRU) OnRemove(f *frame) { p.part(len(f.data)).OnRemove(f) }

func (p *partitionedLRU) Victim(size int) (*frame, error) {
	part := p.part(size)
	if part == nil {
		return nil, fmt.Errorf("%w: no partition for page size %d", ErrNoVictim, size)
	}
	return part.Victim(size)
}

// --- classic frame-count LRU ------------------------------------------------

// classicLRU is the textbook algorithm "tailored to one page size": it
// budgets frames, not bytes. With uniform page sizes it is exactly LRU; with
// mixed sizes it misbehaves (an 8K page costs the same as a 512-byte page),
// which is the deficiency motivating the modified algorithm.
type classicLRU struct {
	maxFrames int
	chain     chain
}

// NewClassicLRU returns a frame-count LRU holding at most maxFrames pages.
func NewClassicLRU(maxFrames int) Policy {
	return &classicLRU{maxFrames: maxFrames}
}

func (p *classicLRU) OnInsert(f *frame) { p.chain.pushFront(f) }
func (p *classicLRU) OnTouch(f *frame)  { p.chain.remove(f); p.chain.pushFront(f) }
func (p *classicLRU) OnRemove(f *frame) { p.chain.remove(f) }

func (p *classicLRU) Victim(int) (*frame, error) {
	need := p.chain.n - p.maxFrames + 1
	if need <= 0 {
		return nil, nil
	}
	f := p.chain.coldest(int64(need), oneFrame)
	if f == nil {
		return nil, fmt.Errorf("%w: all frames pinned", ErrNoVictim)
	}
	return f, nil
}
