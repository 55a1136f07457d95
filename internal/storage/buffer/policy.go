package buffer

import (
	"container/list"
	"fmt"
)

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
	// EvictFor selects victim frames that must leave the pool so a new
	// page of the given size fits. Pinned frames are skipped. It returns
	// ErrNoVictim if the space cannot be freed.
	EvictFor(size int) ([]*frame, error)
	// CanHold reports whether a page of the given size can ever reside in
	// the pool (e.g. fits its partition).
	CanHold(size int) bool
}

// --- size-aware LRU (PRIMA's modified LRU) ---------------------------------

// sizeAwareLRU keeps a single recency chain over pages of all sizes and
// charges residency in bytes: to admit an incoming page it evicts from the
// cold end until enough bytes are free. This is the paper's "well-known LRU
// algorithm altered in an appropriate way".
type sizeAwareLRU struct {
	capacity int64 // bytes
	resident int64 // bytes currently held
	chain    *list.List
}

// NewSizeAwareLRU returns PRIMA's modified LRU with a byte budget.
func NewSizeAwareLRU(capacityBytes int64) Policy {
	return &sizeAwareLRU{capacity: capacityBytes, chain: list.New()}
}

func (p *sizeAwareLRU) CanHold(size int) bool { return int64(size) <= p.capacity }

func (p *sizeAwareLRU) OnInsert(f *frame) {
	f.lruElem = p.chain.PushFront(f)
	p.resident += int64(len(f.data))
}

func (p *sizeAwareLRU) OnTouch(f *frame) {
	p.chain.MoveToFront(f.lruElem)
}

func (p *sizeAwareLRU) OnRemove(f *frame) {
	p.chain.Remove(f.lruElem)
	f.lruElem = nil
	p.resident -= int64(len(f.data))
}

func (p *sizeAwareLRU) EvictFor(size int) ([]*frame, error) {
	if !p.CanHold(size) {
		return nil, fmt.Errorf("%w: page of %d bytes exceeds pool capacity %d", ErrNoVictim, size, p.capacity)
	}
	need := int64(size) - (p.capacity - p.resident)
	if need <= 0 {
		return nil, nil
	}
	var victims []*frame
	for e := p.chain.Back(); e != nil && need > 0; e = e.Prev() {
		f := e.Value.(*frame)
		if f.pins > 0 {
			continue
		}
		victims = append(victims, f)
		need -= int64(len(f.data))
	}
	if need > 0 {
		return nil, fmt.Errorf("%w: %d bytes still needed, all remaining frames pinned", ErrNoVictim, need)
	}
	return victims, nil
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
		parts[size] = &sizeAwareLRU{capacity: budget, chain: list.New()}
	}
	return &partitionedLRU{parts: parts}
}

func (p *partitionedLRU) part(size int) *sizeAwareLRU { return p.parts[size] }

func (p *partitionedLRU) CanHold(size int) bool {
	part := p.part(size)
	return part != nil && part.CanHold(size)
}

func (p *partitionedLRU) OnInsert(f *frame) { p.part(len(f.data)).OnInsert(f) }
func (p *partitionedLRU) OnTouch(f *frame)  { p.part(len(f.data)).OnTouch(f) }
func (p *partitionedLRU) OnRemove(f *frame) { p.part(len(f.data)).OnRemove(f) }

func (p *partitionedLRU) EvictFor(size int) ([]*frame, error) {
	part := p.part(size)
	if part == nil {
		return nil, fmt.Errorf("%w: no partition for page size %d", ErrNoVictim, size)
	}
	return part.EvictFor(size)
}

// --- classic frame-count LRU ------------------------------------------------

// classicLRU is the textbook algorithm "tailored to one page size": it
// budgets frames, not bytes. With uniform page sizes it is exactly LRU; with
// mixed sizes it misbehaves (an 8K page costs the same as a 512-byte page),
// which is the deficiency motivating the modified algorithm.
type classicLRU struct {
	maxFrames int
	chain     *list.List
}

// NewClassicLRU returns a frame-count LRU holding at most maxFrames pages.
func NewClassicLRU(maxFrames int) Policy {
	return &classicLRU{maxFrames: maxFrames, chain: list.New()}
}

func (p *classicLRU) CanHold(int) bool { return p.maxFrames >= 1 }

func (p *classicLRU) OnInsert(f *frame) { f.lruElem = p.chain.PushFront(f) }
func (p *classicLRU) OnTouch(f *frame)  { p.chain.MoveToFront(f.lruElem) }
func (p *classicLRU) OnRemove(f *frame) {
	p.chain.Remove(f.lruElem)
	f.lruElem = nil
}

func (p *classicLRU) EvictFor(int) ([]*frame, error) {
	if p.chain.Len() < p.maxFrames {
		return nil, nil
	}
	need := p.chain.Len() - p.maxFrames + 1
	var victims []*frame
	for e := p.chain.Back(); e != nil && need > 0; e = e.Prev() {
		f := e.Value.(*frame)
		if f.pins > 0 {
			continue
		}
		victims = append(victims, f)
		need--
	}
	if need > 0 {
		return nil, fmt.Errorf("%w: all frames pinned", ErrNoVictim)
	}
	return victims, nil
}
