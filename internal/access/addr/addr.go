// Package addr implements logical addresses (surrogates) and the addressing
// structure that maps them to physical records.
//
// "Update operations and direct access are restricted to atoms identified by
// their logical address. A logical address (or surrogate [ML83]) is used to
// implement the IDENTIFIER attribute as well as the REFERENCE attributes. It
// is generated by the access system when an atom is inserted, and it is
// released when the atom is deleted." (§3.2)
//
// Because PRIMA materializes redundant storage structures (sort orders,
// partitions, atom clusters), one atom maps to *several* physical records —
// "this establishes an n:m relationship between atoms and physical records,
// whereas the usual mapping of conceptual to internal schema is built on a
// 1:1 relationship. A sophisticated addressing structure is required to
// manage such n:m relationships." The Directory in this package is that
// structure: surrogate → list of record references, each tagged with the
// owning storage structure and a validity bit used by deferred update.
package addr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// TypeID identifies an atom type (assigned by the catalog).
type TypeID uint16

// LogicalAddr is a surrogate: 16 bits of atom type, 48 bits of sequence
// number. The zero value is "no address".
type LogicalAddr uint64

// New builds a logical address from an atom type and sequence number.
func New(t TypeID, seq uint64) LogicalAddr {
	return LogicalAddr(uint64(t)<<48 | seq&0xFFFFFFFFFFFF)
}

// Type returns the atom type part of the address.
func (a LogicalAddr) Type() TypeID { return TypeID(a >> 48) }

// Seq returns the sequence part of the address.
func (a LogicalAddr) Seq() uint64 { return uint64(a) & 0xFFFFFFFFFFFF }

// IsZero reports whether a is the null address.
func (a LogicalAddr) IsZero() bool { return a == 0 }

func (a LogicalAddr) String() string {
	if a.IsZero() {
		return "@null"
	}
	return fmt.Sprintf("@%d.%d", a.Type(), a.Seq())
}

// RID locates a physical record: page number and slot within the container
// of one storage structure. For records held in page sequences (atom
// clusters) Page is the sequence's header page and Slot an index into the
// cluster's relative address table.
type RID struct {
	Page uint32
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("p%d/s%d", r.Page, r.Slot) }

// StructKind classifies the storage structure owning a physical record.
type StructKind uint8

// Storage structure kinds. Primary is the mandatory base record of an atom;
// all others are the redundant, LDL-created tuning structures of §3.2.
const (
	KindPrimary StructKind = iota
	KindSortOrder
	KindPartition
	KindCluster
)

func (k StructKind) String() string {
	switch k {
	case KindPrimary:
		return "primary"
	case KindSortOrder:
		return "sortorder"
	case KindPartition:
		return "partition"
	case KindCluster:
		return "cluster"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// StructID identifies a concrete storage structure instance (e.g. one
// specific sort order). StructID 0 is the atom type's primary structure.
type StructID uint32

// RecordRef is one entry of an atom's physical-record list.
type RecordRef struct {
	Struct StructID
	Kind   StructKind
	Where  RID
	// Valid is cleared by deferred update: the record is stale and must
	// not serve reads until propagation rewrites it (§3.2: "during an
	// update operation only one physical record is modified whereas all
	// others are modified later").
	Valid bool
}

// Errors returned by the directory.
var (
	ErrUnknownAddr = errors.New("addr: unknown logical address")
	ErrDupStruct   = errors.New("addr: structure already holds a record for this atom")
)

// slotsPerPage is the number of sequence numbers one table page covers.
const slotsPerPage = 512

// slot is one atom's place in its type's table. The first record reference
// lives in the slot itself; an atom with more than one — a type with sort
// orders, partitions or clusters — keeps the rest in perType.more. A slot
// holds no pointer: the collector never looks inside a table page.
type slot struct {
	first RecordRef
	live  bool // the address is handed out and not released
	has   bool // first is set
}

// perType is the table of one atom type: sequence numbers are handed out
// densely from 1, so slot seq sits at pages[seq/slotsPerPage][seq%slotsPerPage]
// and table order is system-defined order.
type perType struct {
	pages   []*[slotsPerPage]slot
	more    map[uint64][]RecordRef // references beyond the first, by sequence number
	count   int                    // live slots
	nextSeq uint64
}

// at returns the slot of seq, nil if the table has no page for it yet.
func (p *perType) at(seq uint64) *slot {
	if pg := seq / slotsPerPage; pg < uint64(len(p.pages)) && p.pages[pg] != nil {
		return &p.pages[pg][seq%slotsPerPage]
	}
	return nil
}

// grow returns the slot of seq, adding table pages as needed.
func (p *perType) grow(seq uint64) *slot {
	pg := seq / slotsPerPage
	for uint64(len(p.pages)) <= pg {
		p.pages = append(p.pages, nil)
	}
	if p.pages[pg] == nil {
		p.pages[pg] = new([slotsPerPage]slot)
	}
	return &p.pages[pg][seq%slotsPerPage]
}

// end returns the sequence number scans stop before: the next one to be
// handed out, or where the table ends if that comes first.
func (p *perType) end() uint64 {
	return min(p.nextSeq, uint64(len(p.pages))*slotsPerPage)
}

// appendRefs appends the record references of sl, the slot of seq, to dst.
func (p *perType) appendRefs(dst []RecordRef, seq uint64, sl *slot) []RecordRef {
	if sl.has {
		dst = append(dst, sl.first)
	}
	return append(dst, p.more[seq]...)
}

// setRefs makes refs, which it keeps, the reference list of sl.
func (p *perType) setRefs(seq uint64, sl *slot, refs []RecordRef) {
	if sl.has = len(refs) > 0; sl.has {
		sl.first = refs[0]
	}
	if len(refs) > 1 {
		p.more[seq] = refs[1:]
	} else {
		delete(p.more, seq)
	}
}

// find returns the reference of sl, the slot of seq, that structure s owns.
func (p *perType) find(seq uint64, sl *slot, s StructID) *RecordRef {
	if sl.has && sl.first.Struct == s {
		return &sl.first
	}
	rest := p.more[seq]
	for i := range rest {
		if rest[i].Struct == s {
			return &rest[i]
		}
	}
	return nil
}

// Directory is the addressing structure: logical address → physical record
// references, one dense table per atom type. It is safe for concurrent use.
type Directory struct {
	mu    sync.RWMutex
	types []*perType // by TypeID; nil for a type no address was ever asked for
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory { return &Directory{} }

// typ returns t's table, nil if there is none.
func (d *Directory) typ(t TypeID) *perType {
	if int(t) < len(d.types) {
		return d.types[t]
	}
	return nil
}

// pt returns t's table, creating it if there is none.
func (d *Directory) pt(t TypeID) *perType {
	for int(t) >= len(d.types) {
		d.types = append(d.types, nil)
	}
	if d.types[t] == nil {
		d.types[t] = &perType{nextSeq: 1, more: map[uint64][]RecordRef{}}
	}
	return d.types[t]
}

// live returns a's table and slot, nils if a is not a live address.
func (d *Directory) live(a LogicalAddr) (*perType, *slot) {
	if p := d.typ(a.Type()); p != nil {
		if sl := p.at(a.Seq()); sl != nil && sl.live {
			return p, sl
		}
	}
	return nil, nil
}

// lookupLocked is live with ErrUnknownAddr for an address that is not.
func (d *Directory) lookupLocked(a LogicalAddr) (*perType, *slot, error) {
	p, sl := d.live(a)
	if sl == nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnknownAddr, a)
	}
	return p, sl, nil
}

// Reserve hands out a fresh logical address for an atom of type t without
// making it live: Revive does that once the atom is stored. A reserved
// address that never goes live is a gap in the table and is never reused.
func (d *Directory) Reserve(t TypeID) LogicalAddr {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.pt(t)
	seq := p.nextSeq
	p.nextSeq++
	return New(t, seq)
}

// Exists reports whether a is a live address.
func (d *Directory) Exists(a LogicalAddr) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, sl := d.live(a)
	return sl != nil
}

// Register adds a record reference to a's list. Each storage structure may
// hold at most one record per atom.
func (d *Directory) Register(a LogicalAddr, ref RecordRef) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, sl, err := d.lookupLocked(a)
	if err != nil {
		return err
	}
	if p.find(a.Seq(), sl, ref.Struct) != nil {
		return fmt.Errorf("%w: %v struct %d", ErrDupStruct, a, ref.Struct)
	}
	if !sl.has { // the common case: the primary record, no list to build
		sl.first, sl.has = ref, true
		return nil
	}
	p.setRefs(a.Seq(), sl, append(p.appendRefs(nil, a.Seq(), sl), ref))
	return nil
}

// Unregister removes the record reference of the given structure from a's
// list. Removing a reference that is not present is a no-op.
func (d *Directory) Unregister(a LogicalAddr, s StructID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, sl, err := d.lookupLocked(a)
	if err != nil {
		return err
	}
	refs := slices.DeleteFunc(p.appendRefs(nil, a.Seq(), sl), func(r RecordRef) bool { return r.Struct == s })
	p.setRefs(a.Seq(), sl, refs)
	return nil
}

// Update replaces the RID of the given structure's record (e.g. after the
// record moved to another page).
func (d *Directory) Update(a LogicalAddr, s StructID, where RID) error {
	return d.modify(a, s, func(r *RecordRef) { r.Where = where })
}

// SetValid flips the validity bit of the given structure's record.
func (d *Directory) SetValid(a LogicalAddr, s StructID, valid bool) error {
	return d.modify(a, s, func(r *RecordRef) { r.Valid = valid })
}

func (d *Directory) modify(a LogicalAddr, s StructID, change func(*RecordRef)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, sl, err := d.lookupLocked(a)
	if err != nil {
		return err
	}
	r := p.find(a.Seq(), sl, s)
	if r == nil {
		return fmt.Errorf("%w: %v has no record in struct %d", ErrUnknownAddr, a, s)
	}
	change(r)
	return nil
}

// InvalidateOthers clears the validity bit of every record of a except the
// one owned by keep. It returns the references that became stale, which the
// deferred-update machinery queues for propagation.
func (d *Directory) InvalidateOthers(a LogicalAddr, keep StructID) ([]RecordRef, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, sl, err := d.lookupLocked(a)
	if err != nil {
		return nil, err
	}
	var stale []RecordRef
	invalidate := func(r *RecordRef) {
		if r.Struct != keep && r.Valid {
			r.Valid = false
			stale = append(stale, *r)
		}
	}
	if sl.has {
		invalidate(&sl.first)
	}
	for i := range p.more[a.Seq()] {
		invalidate(&p.more[a.Seq()][i])
	}
	return stale, nil
}

// Lookup returns a copy of a's record references.
func (d *Directory) Lookup(a LogicalAddr) ([]RecordRef, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, sl, err := d.lookupLocked(a)
	if err != nil {
		return nil, err
	}
	return p.appendRefs([]RecordRef{}, a.Seq(), sl), nil
}

// LookupStruct returns the record reference owned by structure s, if any.
func (d *Directory) LookupStruct(a LogicalAddr, s StructID) (RecordRef, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p, sl := d.live(a); sl != nil {
		if r := p.find(a.Seq(), sl, s); r != nil {
			return *r, true
		}
	}
	return RecordRef{}, false
}

// Release frees a logical address after its atom was deleted, returning the
// record references that must be reclaimed by their structures.
func (d *Directory) Release(a LogicalAddr) ([]RecordRef, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, sl, err := d.lookupLocked(a)
	if err != nil {
		return nil, err
	}
	refs := p.appendRefs(nil, a.Seq(), sl)
	delete(p.more, a.Seq())
	*sl = slot{}
	p.count--
	return refs, nil
}

// Revive makes a reserved address live, or re-creates the entry for a
// released one (transaction undo of a delete). It fails if the address is
// still live.
func (d *Directory) Revive(a LogicalAddr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.pt(a.Type())
	sl := p.grow(a.Seq())
	if sl.live {
		return fmt.Errorf("addr: revive of live address %v", a)
	}
	sl.live = true
	p.count++
	p.nextSeq = max(p.nextSeq, a.Seq()+1)
	return nil
}

// Count returns the number of live atoms of type t.
func (d *Directory) Count(t TypeID) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p := d.typ(t); p != nil {
		return p.count
	}
	return 0
}

// Scan calls fn for every live atom of type t in system-defined order
// (ascending sequence number, the insertion order). fn receives the address
// and a copy of its reference list, fn's until it returns; returning false
// stops the scan. No lock is held while fn runs, so fn may mutate the
// directory; atoms inserted after the scan began are not visited.
func (d *Directory) Scan(t TypeID, fn func(a LogicalAddr, refs []RecordRef) bool) {
	d.mu.RLock()
	p := d.typ(t)
	if p == nil {
		d.mu.RUnlock()
		return
	}
	end := p.end()
	d.mu.RUnlock()

	var refs []RecordRef
	for seq := uint64(1); seq < end; seq++ {
		d.mu.RLock()
		sl := p.at(seq)
		live := sl != nil && sl.live
		if live {
			refs = p.appendRefs(refs[:0], seq, sl)
		}
		d.mu.RUnlock()
		if live && !fn(New(t, seq), refs) {
			return
		}
	}
}

// ScanRange returns up to limit live addresses of type t with sequence
// numbers strictly greater than after, ascending. It is the paging primitive
// behind lazy root enumeration: callers resume with the last returned
// sequence number, so deletions and inserts between calls are tolerated (a
// chunk never repeats an address).
func (d *Directory) ScanRange(t TypeID, after uint64, limit int) []LogicalAddr {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := d.typ(t)
	if p == nil {
		return nil
	}
	var out []LogicalAddr
	for seq, end := after+1, p.end(); seq < end && len(out) < limit; seq++ {
		if sl := p.at(seq); sl != nil && sl.live {
			if out == nil { // the window past the last atom allocates nothing
				out = make([]LogicalAddr, 0, min(limit, p.count))
			}
			out = append(out, New(t, seq))
		}
	}
	return out
}

// MaxSeq returns the highest sequence number handed out for type t so far
// (0 if none). Paged scans capture it at open so atoms inserted during the
// scan do not extend it — the snapshot bound of the classic cursor.
func (d *Directory) MaxSeq(t TypeID) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p := d.typ(t); p != nil {
		return p.nextSeq - 1
	}
	return 0
}

// Types returns all type ids with at least one live atom, ascending.
func (d *Directory) Types() []TypeID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []TypeID
	for t, p := range d.types {
		if p != nil && p.count > 0 {
			out = append(out, TypeID(t))
		}
	}
	return out
}
