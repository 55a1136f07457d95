// Package record implements containers of physical records.
//
// "To manage redundancy in the access system, physical records are
// introduced as byte strings of variable length. They are stored
// consecutively in 'containers' offered by the storage system." (§3.2)
//
// A Container owns one segment and stores records in slotted pages fixed
// through the buffer pool. Records that exceed a page's capacity spill into
// a page sequence (the storage system's container for long objects); the
// slotted page then holds a small stub pointing at the sequence, so callers
// see one uniform variable-length record abstraction.
package record

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"prima/internal/access/addr"
	"prima/internal/storage/buffer"
	"prima/internal/storage/page"
	"prima/internal/storage/pageseq"
	"prima/internal/storage/segment"
)

// Record stubs: every stored byte string is prefixed with a flag byte.
const (
	flagInline  = 0x00 // record bytes follow inline
	flagSpilled = 0x01 // followed by the uint32 header page of a page sequence
)

// Errors returned by containers.
var (
	ErrNotFound = errors.New("record: no record at this address")
)

// Container stores variable-length physical records in one segment.
// It is safe for concurrent use.
type Container struct {
	seg  *segment.Segment
	pool *buffer.Pool

	mu    sync.Mutex
	pages []uint32       // data pages in scan order
	fsi   map[uint32]int // free-space inventory (approximate, in-memory)
	count int            // live records
	// hint is the index into pages where the last insert succeeded;
	// first-fit resumes there so a long prefix of full pages is not
	// rescanned on every insert.
	hint int
}

// New opens a container over seg, registering it with the pool and
// rebuilding the free-space inventory from the existing data pages.
func New(seg *segment.Segment, pool *buffer.Pool) (*Container, error) {
	pool.Register(seg)
	c := &Container{seg: seg, pool: pool, fsi: make(map[uint32]int)}

	var firstErr error
	raw := make([]byte, seg.PageSize())
	seg.ForAllocated(func(no uint32) bool {
		h, err := pool.Fix(segment.PageID{Seg: seg.ID(), No: no})
		if err != nil {
			// A crash between a fuzzy checkpoint's bitmap flush and the
			// formatted page reaching disk leaves the bit set over a
			// never-written page. Skip it (the page stays allocated but
			// unused); anything else is real corruption.
			if rerr := seg.ReadPage(no, raw); rerr == nil && allZero(raw) {
				return true
			}
			firstErr = fmt.Errorf("record: open page %d: %w", no, err)
			return false
		}
		pg := h.Page()
		if pg.Type() == page.TypeData {
			c.pages = append(c.pages, no)
			c.fsi[no] = pg.FreeSpace()
			c.count += pg.Records()
		}
		h.Release()
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return c, nil
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// Segment returns the container's segment.
func (c *Container) Segment() *segment.Segment { return c.seg }

// Count returns the number of live records.
func (c *Container) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Pages returns the number of data pages in use.
func (c *Container) Pages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pages)
}

// stubLimit returns the maximum stored size for inline records; larger
// records spill to a page sequence.
func (c *Container) stubLimit() int {
	// Capacity of an empty page minus the flag byte, conservatively halved
	// so a page can hold at least two records.
	return (c.seg.PageSize() - page.HeaderSize - 8) / 2
}

// Insert stores rec and returns its record address.
func (c *Container) Insert(rec []byte) (addr.RID, error) {
	if len(rec)+1 > c.stubLimit() {
		return c.insertSpilled(rec)
	}
	return c.insertStored(append([]byte{flagInline}, rec...))
}

func (c *Container) insertSpilled(rec []byte) (addr.RID, error) {
	seq, err := pageseq.Create(c.seg, rec)
	if err != nil {
		return addr.RID{}, fmt.Errorf("record: spill: %w", err)
	}
	var stub [5]byte
	stub[0] = flagSpilled
	binary.BigEndian.PutUint32(stub[1:], seq.HeaderPage())
	rid, err := c.insertStored(stub[:])
	if err != nil {
		_ = seq.Delete()
		return addr.RID{}, err
	}
	return rid, nil
}

// insertStored places an already-prefixed byte string into a page with room.
func (c *Container) insertStored(stored []byte) (addr.RID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// First fit over the FSI starting at the last successful page; the
	// inventory is approximate so failures just update it and move on.
	if c.hint >= len(c.pages) {
		c.hint = 0
	}
	for i := 0; i < len(c.pages); i++ {
		idx := (c.hint + i) % len(c.pages)
		no := c.pages[idx]
		if c.fsi[no] < len(stored) {
			continue
		}
		rid, err := c.insertLocked(no, false, stored)
		if errors.Is(err, page.ErrNoSpace) {
			continue
		}
		if err != nil {
			return addr.RID{}, err
		}
		c.hint = idx
		return rid, nil
	}
	// No page fits: allocate a new one.
	no, err := c.seg.AllocatePage()
	if err != nil {
		return addr.RID{}, fmt.Errorf("record: allocate page: %w", err)
	}
	rid, err := c.insertLocked(no, true, stored)
	if err != nil {
		return addr.RID{}, err
	}
	c.pages = append(c.pages, no)
	c.hint = len(c.pages) - 1
	return rid, nil
}

// insertLocked stores stored in page no, formatting the page first when it
// is fresh, and records the page's free space, also when stored does not fit
// (page.ErrNoSpace).
func (c *Container) insertLocked(no uint32, fresh bool, stored []byte) (addr.RID, error) {
	var slot int
	free, err := c.modify(no, fresh, func(pg page.Page) (bool, error) {
		if fresh {
			pg.Init(page.TypeData, uint32(c.seg.ID()), no)
		}
		var err error
		slot, err = pg.Insert(stored)
		return err == nil, err
	})
	if err != nil && !errors.Is(err, page.ErrNoSpace) {
		return addr.RID{}, fmt.Errorf("record: insert: %w", err)
	}
	c.fsi[no] = free
	if err != nil {
		return addr.RID{}, err
	}
	c.count++
	return addr.RID{Page: no, Slot: uint16(slot)}, nil
}

// view fixes data page no, runs fn over it and releases it.
func (c *Container) view(no uint32, fn func(page.Page) error) error {
	h, err := c.fix(no, false)
	if err != nil {
		return err
	}
	defer h.Release()
	return fn(h.Page())
}

// modify is view for a change: the page is marked dirty when fn reports that
// it changed it, and a fresh page is fixed without being read. It returns the
// page's free space after fn.
func (c *Container) modify(no uint32, fresh bool, fn func(page.Page) (bool, error)) (int, error) {
	h, err := c.fix(no, fresh)
	if err != nil {
		return 0, err
	}
	defer h.Release()
	changed, err := fn(h.Page())
	if changed {
		h.MarkDirty()
	}
	return h.Page().FreeSpace(), err
}

// fix fixes data page no, or fresh page no without reading it. A page the
// segment does not hold, or one never written, holds no record: a record
// address that outlived its record, a crash included, may point anywhere.
func (c *Container) fix(no uint32, fresh bool) (buffer.Handle, error) {
	pid := segment.PageID{Seg: c.seg.ID(), No: no}
	var h buffer.Handle
	var err error
	if fresh {
		h, err = c.pool.FixNew(pid)
	} else {
		h, err = c.pool.Fix(pid)
	}
	switch {
	case errors.Is(err, segment.ErrNotAllocated) || errors.Is(err, page.ErrBadMagic):
		return h, fmt.Errorf("%w: page %d (%v)", ErrNotFound, no, err)
	case err != nil:
		return h, fmt.Errorf("record: fix page %d: %w", no, err)
	}
	return h, nil
}

// Read returns a copy of the record at rid: a batch of one.
func (c *Container) Read(rid addr.RID) ([]byte, error) {
	rids, out := [1]addr.RID{rid}, [1][]byte{}
	_, err := c.ReadBatch(rids[:], out[:])
	return out[0], err
}

// ReadBatch fills out, aligned with rids, with copies of the records at rids
// and returns the number of data pages it fixed. Reads are grouped by page so
// every data page is fixed exactly once per batch no matter how many records
// it serves — the unit of work behind the access system's batched atom reads.
// The grouping is one index slice ordered by page: a molecule level's records
// were stored one after the other, so it is nearly always in order already.
// Up to eight records it stays on the stack.
func (c *Container) ReadBatch(rids []addr.RID, out [][]byte) (pages int, err error) {
	var orderBuf [8]int32
	order := orderBuf[:0]
	if len(rids) > len(orderBuf) {
		order = make([]int32, 0, len(rids))
	}
	for i := range rids {
		order = append(order, int32(i))
	}
	byPage := func(i, j int32) int { return cmp.Compare(rids[i].Page, rids[j].Page) }
	if !slices.IsSortedFunc(order, byPage) {
		slices.SortStableFunc(order, byPage)
	}

	type spillRef struct {
		idx    int
		header uint32
	}
	var spills []spillRef
	for lo := 0; lo < len(order); pages++ {
		no := rids[order[lo]].Page
		hi := lo + 1
		for hi < len(order) && rids[order[hi]].Page == no {
			hi++
		}
		err := c.view(no, func(pg page.Page) error {
			for _, i := range order[lo:hi] {
				stored, err := pg.Read(int(rids[i].Slot))
				if err != nil {
					return fmt.Errorf("%w: %v (%v)", ErrNotFound, rids[i], err)
				}
				data, spill, err := c.decodeStored(stored)
				if err != nil {
					return err
				}
				if spill != 0 {
					spills = append(spills, spillRef{idx: int(i), header: spill})
				} else {
					out[i] = data
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		lo = hi
	}
	// Spilled records read their page sequences after the slotted page is
	// unfixed.
	for _, sp := range spills {
		seq, err := pageseq.Open(c.seg, sp.header)
		if err != nil {
			return 0, fmt.Errorf("record: open spill of %v: %w", rids[sp.idx], err)
		}
		if out[sp.idx], err = seq.ReadAll(); err != nil {
			return 0, err
		}
	}
	return pages, nil
}

// decodeStored interprets a stored byte string. For inline records it
// returns a copy; for spilled ones the sequence header page.
func (c *Container) decodeStored(stored []byte) ([]byte, uint32, error) {
	spill, err := spillOf(stored)
	if err != nil || spill != 0 {
		return nil, spill, err
	}
	out := make([]byte, len(stored)-1)
	copy(out, stored[1:])
	return out, 0, nil
}

// spillOf reads a stored byte string's flag, and a spilled record's sequence
// header page, in place: it returns 0 for an inline record.
func spillOf(stored []byte) (uint32, error) {
	if len(stored) < 1 {
		return 0, fmt.Errorf("record: empty stored record")
	}
	switch stored[0] {
	case flagInline:
		return 0, nil
	case flagSpilled:
		if len(stored) != 5 {
			return 0, fmt.Errorf("record: bad spill stub length %d", len(stored))
		}
		return binary.BigEndian.Uint32(stored[1:]), nil
	default:
		return 0, fmt.Errorf("record: bad record flag %#x", stored[0])
	}
}

// Update replaces the record at rid. The record may move; the (possibly
// new) address is returned and the caller must update the directory.
func (c *Container) Update(rid addr.RID, rec []byte) (addr.RID, error) {
	// Resolve the current stub first to free any old spill; a version that
	// stays inline is written in place when the page has room.
	inline := len(rec)+1 <= c.stubLimit()
	var oldSpill uint32
	free, err := c.modify(rid.Page, false, func(pg page.Page) (bool, error) {
		stored, err := pg.Read(int(rid.Slot))
		if err != nil {
			return false, fmt.Errorf("%w: %v (%v)", ErrNotFound, rid, err)
		}
		if oldSpill, err = spillOf(stored); err != nil || !inline {
			return false, err
		}
		err = pg.Update(int(rid.Slot), append([]byte{flagInline}, rec...))
		return err == nil, err
	})
	if errors.Is(err, page.ErrNoSpace) {
		// Page cannot hold the new version: move the record.
		if err := c.Delete(rid); err != nil {
			return addr.RID{}, err
		}
		return c.Insert(rec)
	}
	if err != nil {
		return addr.RID{}, err
	}
	if inline {
		c.mu.Lock()
		c.fsi[rid.Page] = free
		c.mu.Unlock()
		c.freeSpill(oldSpill)
		return rid, nil
	}

	// New version spills.
	if oldSpill != 0 {
		// Rewrite the existing sequence; the stub may need updating if the
		// sequence moved.
		seq, err := pageseq.Open(c.seg, oldSpill)
		if err != nil {
			return addr.RID{}, fmt.Errorf("record: open spill: %w", err)
		}
		ns, err := seq.Rewrite(rec)
		if err != nil {
			return addr.RID{}, fmt.Errorf("record: rewrite spill: %w", err)
		}
		if ns.HeaderPage() != oldSpill {
			if err := c.pointStubAt(rid, ns.HeaderPage()); err != nil {
				return addr.RID{}, err
			}
		}
		return rid, nil
	}
	// Inline -> spilled transition.
	seq, err := pageseq.Create(c.seg, rec)
	if err != nil {
		return addr.RID{}, fmt.Errorf("record: spill: %w", err)
	}
	if err := c.pointStubAt(rid, seq.HeaderPage()); err != nil {
		_ = seq.Delete()
		return addr.RID{}, err
	}
	return rid, nil
}

func (c *Container) pointStubAt(rid addr.RID, headerPage uint32) error {
	var stub [5]byte
	stub[0] = flagSpilled
	binary.BigEndian.PutUint32(stub[1:], headerPage)
	_, err := c.modify(rid.Page, false, func(pg page.Page) (bool, error) {
		if err := pg.Update(int(rid.Slot), stub[:]); err != nil {
			return false, fmt.Errorf("record: update spill stub: %w", err)
		}
		return true, nil
	})
	return err
}

func (c *Container) freeSpill(headerPage uint32) {
	if headerPage == 0 {
		return
	}
	if seq, err := pageseq.Open(c.seg, headerPage); err == nil {
		_ = seq.Delete()
	}
}

// Delete removes the record at rid, freeing any spill pages.
func (c *Container) Delete(rid addr.RID) error {
	var spill uint32
	free, err := c.modify(rid.Page, false, func(pg page.Page) (bool, error) {
		stored, err := pg.Read(int(rid.Slot))
		if err != nil {
			return false, fmt.Errorf("%w: %v (%v)", ErrNotFound, rid, err)
		}
		if spill, err = spillOf(stored); err != nil {
			return false, err
		}
		err = pg.Delete(int(rid.Slot))
		return err == nil, err
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.fsi[rid.Page] = free
	c.count--
	c.mu.Unlock()
	c.freeSpill(spill)
	return nil
}

// Scan calls fn for every record in page/slot order. The record slice is
// only valid during the call.
func (c *Container) Scan(fn func(rid addr.RID, rec []byte) bool) error {
	c.mu.Lock()
	pages := make([]uint32, len(c.pages))
	copy(pages, c.pages)
	c.mu.Unlock()

	for _, no := range pages {
		type item struct {
			slot  int
			data  []byte
			spill uint32
		}
		var items []item
		err := c.view(no, func(pg page.Page) error {
			var decodeErr error
			pg.ForEach(func(slot int, stored []byte) bool {
				data, spill, err := c.decodeStored(stored)
				if err != nil {
					decodeErr = err
					return false
				}
				items = append(items, item{slot, data, spill})
				return true
			})
			return decodeErr
		})
		if err != nil {
			return err
		}
		for _, it := range items {
			data := it.data
			if it.spill != 0 {
				seq, err := pageseq.Open(c.seg, it.spill)
				if err != nil {
					return fmt.Errorf("record: scan spill: %w", err)
				}
				if data, err = seq.ReadAll(); err != nil {
					return err
				}
			}
			if !fn(addr.RID{Page: no, Slot: uint16(it.slot)}, data) {
				return nil
			}
		}
	}
	return nil
}
