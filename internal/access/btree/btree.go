// Package btree implements the B*-tree access paths of PRIMA's access
// system (§3.2). An access path maps attribute values to the logical
// addresses of the atoms holding them; it supports exact search and
// key-sequential scans with start/stop conditions in both directions
// ("linear orders based on B*-trees only allow sequential NEXT/PRIOR
// traversal").
//
// The tree lives in its own segment and goes through the buffer pool like
// every other page access. Nodes use the max-key convention: an internal
// entry stores the maximum (key, addr) of its child's subtree, so no
// separate leftmost-child pointer is needed. Duplicate attribute values are
// supported by ordering entries on the composite (key, logical address).
// Leaves are forward-chained for NEXT scans; PRIOR scans walk an explicit
// descent stack.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/storage/buffer"
	"prima/internal/storage/page"
	"prima/internal/storage/segment"
)

// Errors returned by the tree.
var (
	ErrNotFound    = errors.New("btree: entry not found")
	ErrKeyTooLarge = errors.New("btree: key exceeds node capacity")
	ErrBadMeta     = errors.New("btree: bad meta page")
)

const (
	flagLeaf  = 0x01
	metaMagic = 0x4254 // "BT"
)

// entry is one decoded node entry. In leaves Child is unused; in internal
// nodes (Key, Addr) is the maximum composite key of the Child subtree.
type entry struct {
	key   atom.Value
	addr  addr.LogicalAddr
	child uint32
}

// BTree is a persistent B*-tree. It is safe for concurrent use (one writer
// at a time; readers share).
type BTree struct {
	mu   sync.RWMutex
	seg  *segment.Segment
	pool *buffer.Pool
	meta uint32 // meta page number
	root uint32 // root page number; 0 = empty tree
	size int    // live entries
}

// Create initializes a new, empty tree in seg.
func Create(seg *segment.Segment, pool *buffer.Pool) (*BTree, error) {
	pool.Register(seg)
	metaNo, err := seg.AllocatePage()
	if err != nil {
		return nil, fmt.Errorf("btree: allocate meta: %w", err)
	}
	t := &BTree{seg: seg, pool: pool, meta: metaNo}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree whose meta page is metaNo.
func Open(seg *segment.Segment, pool *buffer.Pool, metaNo uint32) (*BTree, error) {
	pool.Register(seg)
	t := &BTree{seg: seg, pool: pool, meta: metaNo}
	h, err := pool.Fix(segment.PageID{Seg: seg.ID(), No: metaNo})
	if err != nil {
		return nil, fmt.Errorf("btree: open meta: %w", err)
	}
	defer h.Release()
	body := h.Page().Body()
	if h.Page().Type() != page.TypeMeta || binary.BigEndian.Uint16(body) != metaMagic {
		return nil, ErrBadMeta
	}
	t.root = binary.BigEndian.Uint32(body[4:])
	t.size = int(binary.BigEndian.Uint64(body[8:]))
	return t, nil
}

// MetaPage returns the page number identifying the tree on disk.
func (t *BTree) MetaPage() uint32 { return t.meta }

// Segment returns the segment the tree lives in.
func (t *BTree) Segment() *segment.Segment { return t.seg }

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

func (t *BTree) writeMeta() error {
	h, err := t.pool.FixNew(segment.PageID{Seg: t.seg.ID(), No: t.meta})
	if err != nil {
		return err
	}
	defer h.Release()
	pg := h.Page()
	pg.Init(page.TypeMeta, uint32(t.seg.ID()), t.meta)
	body := pg.Body()
	binary.BigEndian.PutUint16(body, metaMagic)
	binary.BigEndian.PutUint32(body[4:], t.root)
	binary.BigEndian.PutUint64(body[8:], uint64(t.size))
	h.MarkDirty()
	return nil
}

// cmp orders composite keys (value, addr).
func cmp(k1 atom.Value, a1 addr.LogicalAddr, k2 atom.Value, a2 addr.LogicalAddr) int {
	if c := atom.Compare(k1, k2); c != 0 {
		return c
	}
	switch {
	case a1 < a2:
		return -1
	case a1 > a2:
		return 1
	default:
		return 0
	}
}

// --- node I/O ---------------------------------------------------------------

// decodeEntry decodes one stored node entry.
func decodeEntry(rec []byte, leaf bool) (e entry, err error) {
	if len(rec) < 2 {
		return e, fmt.Errorf("btree: short entry")
	}
	klen := int(binary.BigEndian.Uint16(rec))
	rec = rec[2:]
	if len(rec) < klen+8 {
		return e, fmt.Errorf("btree: truncated entry")
	}
	if e.key, _, err = atom.DecodeValue(rec[:klen]); err != nil {
		return e, err
	}
	rec = rec[klen:]
	e.addr = addr.LogicalAddr(binary.BigEndian.Uint64(rec))
	if !leaf {
		if rec = rec[8:]; len(rec) < 4 {
			return e, fmt.Errorf("btree: internal entry missing child")
		}
		e.child = binary.BigEndian.Uint32(rec)
	}
	return e, nil
}

// readNode decodes a node page into entries (slot order == sorted order by
// construction: nodes are always rewritten wholesale in sorted order). It
// serves the mutations, which rewrite the node anyway; lookups and ascending
// scans probe the page in place (readSlot, lowerBound).
func readNode(pg page.Page) (leaf bool, entries []entry, next uint32, err error) {
	leaf = pg.Flags()&flagLeaf != 0
	next = pg.Next()
	pg.ForEach(func(_ int, rec []byte) bool {
		var e entry
		if e, err = decodeEntry(rec, leaf); err != nil {
			return false
		}
		entries = append(entries, e)
		return true
	})
	return leaf, entries, next, err
}

// readSlot decodes the entry in slot i of a node page.
func readSlot(pg page.Page, i int, leaf bool) (entry, error) {
	rec, err := pg.Read(i)
	if err != nil {
		return entry{}, fmt.Errorf("btree: %w", err)
	}
	return decodeEntry(rec, leaf)
}

// lowerBound returns the first slot of the node whose composite key is not
// below (key, 0) — the slot count when every entry is — decoding only the
// keys the binary search probes.
func lowerBound(pg page.Page, leaf bool, key atom.Value) (int, error) {
	lo, hi := 0, pg.Slots()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e, err := readSlot(pg, mid, leaf)
		if err != nil {
			return 0, err
		}
		if cmp(key, 0, e.key, e.addr) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// writeNode rewrites a node page with the given sorted entries.
func writeNode(pg page.Page, segID, pageNo uint32, leaf bool, entries []entry, next uint32) error {
	pg.Init(page.TypeIndex, segID, pageNo)
	if leaf {
		pg.SetFlags(flagLeaf)
	}
	pg.SetNext(next)
	var buf []byte
	for _, e := range entries {
		kenc := atom.AppendValue(nil, e.key)
		need := 2 + len(kenc) + 8
		if !leaf {
			need += 4
		}
		if cap(buf) < need {
			buf = make([]byte, 0, need)
		}
		buf = buf[:0]
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(kenc)))
		buf = append(buf, kenc...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.addr))
		if !leaf {
			buf = binary.BigEndian.AppendUint32(buf, e.child)
		}
		if _, err := pg.Insert(buf); err != nil {
			return err
		}
	}
	return nil
}

// entryBytes estimates the stored size of an entry.
func entryBytes(e entry, leaf bool) int {
	n := 2 + len(atom.AppendValue(nil, e.key)) + 8 + 4 /* slot */
	if !leaf {
		n += 4
	}
	return n
}

// nodeFits reports whether entries fit one page of the tree's size.
func (t *BTree) nodeFits(entries []entry, leaf bool) bool {
	total := 0
	for _, e := range entries {
		total += entryBytes(e, leaf)
	}
	return total <= t.seg.PageSize()-page.HeaderSize
}

func (t *BTree) allocNode() (uint32, error) {
	no, err := t.seg.AllocatePage()
	if err != nil {
		return 0, fmt.Errorf("btree: allocate node: %w", err)
	}
	return no, nil
}

func (t *BTree) loadNode(no uint32) (bool, []entry, uint32, error) {
	h, err := t.pool.Fix(segment.PageID{Seg: t.seg.ID(), No: no})
	if err != nil {
		return false, nil, 0, err
	}
	defer h.Release()
	return readNode(h.Page())
}

func (t *BTree) storeNode(no uint32, leaf bool, entries []entry, next uint32, fresh bool) error {
	var h buffer.Handle
	var err error
	if fresh {
		h, err = t.pool.FixNew(segment.PageID{Seg: t.seg.ID(), No: no})
	} else {
		h, err = t.pool.Fix(segment.PageID{Seg: t.seg.ID(), No: no})
	}
	if err != nil {
		return err
	}
	defer h.Release()
	if err := writeNode(h.Page(), uint32(t.seg.ID()), no, leaf, entries, next); err != nil {
		return err
	}
	h.MarkDirty()
	return nil
}

// --- mutation ---------------------------------------------------------------

// Insert adds (key, a) to the tree. Duplicate composite entries are
// rejected with ErrDupEntry.
func (t *BTree) Insert(key atom.Value, a addr.LogicalAddr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(key, a)
}

// CheckKey rejects a key too large for a node to hold four of, as Insert
// would: a writer checks its keys before it logs anything.
func (t *BTree) CheckKey(key atom.Value) error {
	if n := entryBytes(entry{key: key}, false); n > t.seg.PageSize()/4 {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, n)
	}
	return nil
}

func (t *BTree) insertLocked(key atom.Value, a addr.LogicalAddr) error {
	if err := t.CheckKey(key); err != nil {
		return err
	}

	if t.root == 0 {
		no, err := t.allocNode()
		if err != nil {
			return err
		}
		if err := t.storeNode(no, true, []entry{{key: key, addr: a}}, 0, true); err != nil {
			return err
		}
		t.root = no
		t.size = 1
		return t.writeMeta()
	}

	// Descend, remembering the path (pageNo, childIdx).
	var path []pathStep
	no := t.root
	for {
		leaf, entries, _, err := t.loadNode(no)
		if err != nil {
			return err
		}
		if leaf {
			break
		}
		idx := len(entries) - 1
		for i, e := range entries {
			if cmp(key, a, e.key, e.addr) <= 0 {
				idx = i
				break
			}
		}
		path = append(path, pathStep{no, idx})
		no = entries[idx].child
	}

	// Insert into the leaf (sorted position).
	leaf, entries, next, err := t.loadNode(no)
	if err != nil {
		return err
	}
	pos := len(entries)
	for i, e := range entries {
		c := cmp(key, a, e.key, e.addr)
		if c == 0 {
			return ErrDupEntry
		}
		if c < 0 {
			pos = i
			break
		}
	}
	entries = append(entries, entry{})
	copy(entries[pos+1:], entries[pos:])
	entries[pos] = entry{key: key, addr: a}
	t.size++

	// Write back, splitting up the path as needed.
	newChildNo := no
	newChildEntries := entries
	isLeaf := leaf
	childNext := next
	for {
		if t.nodeFits(newChildEntries, isLeaf) {
			if err := t.storeNode(newChildNo, isLeaf, newChildEntries, childNext, false); err != nil {
				return err
			}
			// Propagate possibly increased max keys up the path.
			hi := newChildEntries[len(newChildEntries)-1]
			if err := t.bumpMax(path, newChildNo, hi); err != nil {
				return err
			}
			return t.writeMeta()
		}
		// Split.
		mid := len(newChildEntries) / 2
		leftEntries := append([]entry(nil), newChildEntries[:mid]...)
		rightEntries := append([]entry(nil), newChildEntries[mid:]...)
		rightNo, err := t.allocNode()
		if err != nil {
			return err
		}
		if isLeaf {
			if err := t.storeNode(rightNo, true, rightEntries, childNext, true); err != nil {
				return err
			}
			if err := t.storeNode(newChildNo, true, leftEntries, rightNo, false); err != nil {
				return err
			}
		} else {
			if err := t.storeNode(rightNo, false, rightEntries, 0, true); err != nil {
				return err
			}
			if err := t.storeNode(newChildNo, false, leftEntries, 0, false); err != nil {
				return err
			}
		}
		maxL := leftEntries[len(leftEntries)-1]
		maxR := rightEntries[len(rightEntries)-1]

		if len(path) == 0 {
			// Root split.
			rootNo, err := t.allocNode()
			if err != nil {
				return err
			}
			rootEntries := []entry{
				{key: maxL.key, addr: maxL.addr, child: newChildNo},
				{key: maxR.key, addr: maxR.addr, child: rightNo},
			}
			if err := t.storeNode(rootNo, false, rootEntries, 0, true); err != nil {
				return err
			}
			t.root = rootNo
			return t.writeMeta()
		}

		parent := path[len(path)-1]
		path = path[:len(path)-1]
		_, pentries, pnext, err := t.loadNode(parent.no)
		if err != nil {
			return err
		}
		// Replace the split child's entry and add the right sibling.
		pentries[parent.idx] = entry{key: maxL.key, addr: maxL.addr, child: newChildNo}
		pentries = append(pentries, entry{})
		copy(pentries[parent.idx+2:], pentries[parent.idx+1:])
		pentries[parent.idx+1] = entry{key: maxR.key, addr: maxR.addr, child: rightNo}

		newChildNo = parent.no
		newChildEntries = pentries
		isLeaf = false
		childNext = pnext
	}
}

// Pair is one entry to Build a tree from: an attribute value and the
// logical address of the atom holding it.
type Pair struct {
	Key  atom.Value
	Addr addr.LogicalAddr
}

// Build adds pairs to the tree; it sorts them in place. On an empty tree,
// the backfill of a new access path, it builds the tree bottom-up: the
// sorted entries are packed into chained leaves and each level of
// separators into the nodes above, every node written once. A tree that
// already holds entries takes them one Insert at a time.
func (t *BTree) Build(pairs []Pair) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root != 0 {
		for _, p := range pairs {
			if err := t.insertLocked(p.Key, p.Addr); err != nil {
				return err
			}
		}
		return nil
	}
	if len(pairs) == 0 {
		return nil
	}
	slices.SortFunc(pairs, func(x, y Pair) int { return cmp(x.Key, x.Addr, y.Key, y.Addr) })
	level := make([]entry, len(pairs))
	for i, p := range pairs {
		if err := t.CheckKey(p.Key); err != nil {
			return err
		}
		if i > 0 && cmp(p.Key, p.Addr, pairs[i-1].Key, pairs[i-1].Addr) == 0 {
			return ErrDupEntry
		}
		level[i] = entry{key: p.Key, addr: p.Addr}
	}
	for leaf := true; ; leaf = false {
		up, err := t.buildLevel(level, leaf)
		if err != nil {
			return err
		}
		if len(up) == 1 {
			t.root = up[0].child
			break
		}
		level = up
	}
	t.size = len(pairs)
	return t.writeMeta()
}

// buildLevel packs one level's sorted entries into as few nodes as hold
// them, chaining leaves in key order, and returns the separators of the
// level above: each node's maximum entry with the node as its child.
func (t *BTree) buildLevel(entries []entry, leaf bool) ([]entry, error) {
	room := t.seg.PageSize() - page.HeaderSize
	var cuts []int // end of each node's run of entries
	used := 0
	for i, e := range entries {
		n := entryBytes(e, leaf)
		if used+n > room {
			cuts = append(cuts, i)
			used = 0
		}
		used += n
	}
	cuts = append(cuts, len(entries))
	nos := make([]uint32, len(cuts))
	for i := range nos {
		no, err := t.allocNode()
		if err != nil {
			return nil, err
		}
		nos[i] = no
	}
	up := make([]entry, len(cuts))
	start := 0
	for i, end := range cuts {
		var next uint32
		if leaf && i+1 < len(nos) {
			next = nos[i+1]
		}
		if err := t.storeNode(nos[i], leaf, entries[start:end], next, true); err != nil {
			return nil, err
		}
		hi := entries[end-1]
		up[i] = entry{key: hi.key, addr: hi.addr, child: nos[i]}
		start = end
	}
	return up, nil
}

// ErrDupEntry signals an exact (key, addr) duplicate.
var ErrDupEntry = errors.New("btree: duplicate entry")

// pathStep records one hop of a root-to-leaf descent.
type pathStep struct {
	no  uint32
	idx int
}

// bumpMax raises the max keys along the descent path if the child's maximum
// grew beyond the recorded separator (happens when inserting past the
// rightmost entry).
func (t *BTree) bumpMax(path []pathStep, childNo uint32, hi entry) error {
	for i := len(path) - 1; i >= 0; i-- {
		no, idx := path[i].no, path[i].idx
		_, entries, next, err := t.loadNode(no)
		if err != nil {
			return err
		}
		if idx >= len(entries) || entries[idx].child != childNo {
			// Path became stale due to a split; locate the child.
			idx = -1
			for j, e := range entries {
				if e.child == childNo {
					idx = j
					break
				}
			}
			if idx == -1 {
				return fmt.Errorf("btree: lost child %d during max propagation", childNo)
			}
		}
		if cmp(hi.key, hi.addr, entries[idx].key, entries[idx].addr) <= 0 {
			return nil // separator already covers the subtree
		}
		entries[idx].key = hi.key
		entries[idx].addr = hi.addr
		if err := t.storeNode(no, false, entries, next, false); err != nil {
			return err
		}
		childNo = no
	}
	return nil
}

// Delete removes the entry (key, a). Nodes are allowed to underflow (no
// rebalancing); empty leaves remain chained and are skipped by scans.
func (t *BTree) Delete(key atom.Value, a addr.LogicalAddr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == 0 {
		return ErrNotFound
	}
	no := t.root
	for {
		leaf, entries, next, err := t.loadNode(no)
		if err != nil {
			return err
		}
		if !leaf {
			idx := -1
			for i, e := range entries {
				if cmp(key, a, e.key, e.addr) <= 0 {
					idx = i
					break
				}
			}
			if idx == -1 {
				return ErrNotFound
			}
			no = entries[idx].child
			continue
		}
		for i, e := range entries {
			c := cmp(key, a, e.key, e.addr)
			if c == 0 {
				entries = append(entries[:i], entries[i+1:]...)
				if err := t.storeNode(no, true, entries, next, false); err != nil {
					return err
				}
				t.size--
				return t.writeMeta()
			}
			if c < 0 {
				return ErrNotFound
			}
		}
		return ErrNotFound
	}
}

// Search returns the logical addresses of all entries whose key equals key.
func (t *BTree) Search(key atom.Value) ([]addr.LogicalAddr, error) {
	var out []addr.LogicalAddr
	err := t.Scan(&key, &key, false, func(_ atom.Value, a addr.LogicalAddr) bool {
		out = append(out, a)
		return true
	})
	return out, err
}

// Scan iterates entries with start <= key <= stop (nil bounds are open) in
// ascending order, or descending when desc is set. fn returning false stops
// the scan. This implements the access-path scan's start/stop conditions and
// NEXT/PRIOR directions (§3.2).
func (t *BTree) Scan(start, stop *atom.Value, desc bool, fn func(key atom.Value, a addr.LogicalAddr) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == 0 {
		return nil
	}
	if desc {
		return t.scanDesc(start, stop, fn)
	}
	return t.scanAsc(start, stop, fn)
}

func (t *BTree) scanAsc(start, stop *atom.Value, fn func(atom.Value, addr.LogicalAddr) bool) error {
	// Descend to the first candidate leaf and the first candidate slot in it.
	no, pos := t.root, 0
	for {
		leaf, at, child, err := t.seek(no, start)
		if err != nil {
			return err
		}
		if leaf {
			pos = at
			break
		}
		no = child
	}
	// Walk the leaf chain. A leaf's entries are decoded under the fix but
	// delivered after it: fn is the caller's code and must not run with a
	// page pinned.
	var batch []entry
	for ; no != 0; pos = 0 {
		var err error
		if batch, no, err = t.readLeaf(no, pos, stop, batch[:0]); err != nil {
			return err
		}
		for _, e := range batch {
			if !fn(e.key, e.addr) {
				return nil
			}
		}
	}
	return nil
}

// seek finds where an ascending scan from start (nil: from the beginning)
// enters node no: the first slot not below start, and for an internal node
// the child under it to descend into. It decodes only the probed keys.
func (t *BTree) seek(no uint32, start *atom.Value) (leaf bool, pos int, child uint32, err error) {
	h, err := t.pool.Fix(segment.PageID{Seg: t.seg.ID(), No: no})
	if err != nil {
		return false, 0, 0, err
	}
	defer h.Release()
	pg := h.Page()
	leaf = pg.Flags()&flagLeaf != 0
	if start != nil {
		if pos, err = lowerBound(pg, leaf, *start); err != nil {
			return false, 0, 0, err
		}
	}
	if leaf {
		return true, pos, 0, nil
	}
	if pg.Slots() == 0 {
		return false, 0, 0, fmt.Errorf("btree: empty internal node %d", no)
	}
	// Past every separator only the rightmost subtree can hold keys that
	// large.
	e, err := readSlot(pg, min(pos, pg.Slots()-1), false)
	return false, pos, e.child, err
}

// readLeaf appends leaf no's entries from slot pos on to batch, up to the
// first key above stop (nil: to the end of the leaf). next is the leaf the
// scan goes on with: none (0) once a key above stop was met.
func (t *BTree) readLeaf(no uint32, pos int, stop *atom.Value, batch []entry) (_ []entry, next uint32, err error) {
	h, err := t.pool.Fix(segment.PageID{Seg: t.seg.ID(), No: no})
	if err != nil {
		return nil, 0, err
	}
	defer h.Release()
	pg := h.Page()
	for i := pos; i < pg.Slots(); i++ {
		e, err := readSlot(pg, i, true)
		if err != nil {
			return nil, 0, err
		}
		if stop != nil && atom.Compare(e.key, *stop) > 0 {
			return batch, 0, nil
		}
		batch = append(batch, e)
	}
	return batch, pg.Next(), nil
}

// scanDesc walks the tree right-to-left using an explicit stack.
func (t *BTree) scanDesc(start, stop *atom.Value, fn func(atom.Value, addr.LogicalAddr) bool) error {
	type frame struct {
		no      uint32
		entries []entry
		idx     int
	}
	var stack []frame
	push := func(no uint32) (bool, []entry, error) {
		leaf, entries, _, err := t.loadNode(no)
		if err != nil {
			return false, nil, err
		}
		if !leaf {
			stack = append(stack, frame{no: no, entries: entries, idx: len(entries) - 1})
		}
		return leaf, entries, nil
	}

	// Initial descent to the leaf holding the upper bound (or the
	// rightmost leaf).
	no := t.root
	for {
		leaf, entries, err := push(no)
		if err != nil {
			return err
		}
		if leaf {
			// Emit this leaf then continue via the stack.
			if done, err := emitDesc(entries, start, stop, fn); done || err != nil {
				return err
			}
			break
		}
		f := &stack[len(stack)-1]
		if stop != nil {
			// Choose the last child whose subtree intersects (-inf, stop]:
			// the first entry with max > stop, or the last entry otherwise.
			// (A child whose max equals stop may be followed by one that
			// starts with more entries of key stop.)
			f.idx = len(f.entries) - 1
			for i, e := range f.entries {
				if atom.Compare(e.key, *stop) > 0 {
					f.idx = i
					break
				}
			}
		}
		no = f.entries[f.idx].child
	}

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		f.idx--
		if f.idx < 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		// Descend to the rightmost leaf of this subtree.
		no := f.entries[f.idx].child
		// Prune subtrees entirely above stop or below start.
		if start != nil && atom.Compare(f.entries[f.idx].key, *start) < 0 {
			return nil // everything further left is smaller than start
		}
		for {
			leaf, entries, err := push(no)
			if err != nil {
				return err
			}
			if leaf {
				if done, err := emitDesc(entries, start, stop, fn); done || err != nil {
					return err
				}
				break
			}
			no = entries[len(entries)-1].child
		}
	}
	return nil
}

func emitDesc(entries []entry, start, stop *atom.Value, fn func(atom.Value, addr.LogicalAddr) bool) (bool, error) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if stop != nil && atom.Compare(e.key, *stop) > 0 {
			continue
		}
		if start != nil && atom.Compare(e.key, *start) < 0 {
			return true, nil
		}
		if !fn(e.key, e.addr) {
			return true, nil
		}
	}
	return false, nil
}

// Height returns the tree height (0 for empty), for diagnostics and tests.
func (t *BTree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == 0 {
		return 0, nil
	}
	h := 1
	no := t.root
	for {
		leaf, entries, _, err := t.loadNode(no)
		if err != nil {
			return 0, err
		}
		if leaf {
			return h, nil
		}
		if len(entries) == 0 {
			return 0, fmt.Errorf("btree: empty internal node %d", no)
		}
		no = entries[0].child
		h++
	}
}
