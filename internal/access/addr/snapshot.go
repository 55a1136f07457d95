package addr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Snapshot layout (big-endian):
//
//	magic    uint32 "ADIR"
//	ntypes   uint32
//	per type:
//	  typeID  uint16
//	  nextSeq uint64
//	  nentry  uint32
//	  per entry:
//	    seq   uint64
//	    nrefs uint16
//	    per ref: struct uint32, kind uint8, page uint32, slot uint16, valid uint8
//
// The directory is snapshotted at checkpoint/close time. Crash recovery is
// out of scope for the single-user prototype (the paper defers transaction
// recovery to a follow-up paper); a torn snapshot is detected via the magic
// and length checks and reported as corruption.
const snapMagic = 0x41444952 // "ADIR"

// Snapshot serializes the directory.
func (d *Directory) Snapshot() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()

	size, ntypes := 8, 0
	for _, p := range d.types {
		if p == nil {
			continue
		}
		ntypes++
		size += 2 + 8 + 4 + p.count*(8+2+12)
		for _, rest := range p.more {
			size += len(rest) * 12
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, snapMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(ntypes))
	var refs []RecordRef
	for t, p := range d.types {
		if p == nil {
			continue
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(t))
		buf = binary.BigEndian.AppendUint64(buf, p.nextSeq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.count))
		for seq, end := uint64(1), p.end(); seq < end; seq++ {
			sl := p.at(seq)
			if sl == nil || !sl.live {
				continue
			}
			refs = p.appendRefs(refs[:0], seq, sl)
			buf = binary.BigEndian.AppendUint64(buf, seq)
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(refs)))
			for _, r := range refs {
				buf = binary.BigEndian.AppendUint32(buf, uint32(r.Struct))
				buf = append(buf, byte(r.Kind))
				buf = binary.BigEndian.AppendUint32(buf, r.Where.Page)
				buf = binary.BigEndian.AppendUint16(buf, r.Where.Slot)
				if r.Valid {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	}
	return buf
}

// maxTablePages is the fixed ceiling of LoadSnapshot: the page pointers of
// every type's table together, 1Mi of them (8 MiB), which covers 2^29
// sequence numbers handed out across all types. A snapshot claiming more is
// refused as corrupt rather than trusted with the memory: a directory only
// gets there by handing out half a billion addresses.
const maxTablePages = 1 << 20

// LoadSnapshot reconstructs a directory from Snapshot output. It trusts
// nothing it reads: types and sequence numbers must ascend as Snapshot
// writes them, every count is paid for by the bytes that follow it, and the
// tables together span at most maxTablePages pages, so hostile input fails
// with an error in time and memory proportional to its length plus that
// ceiling.
func LoadSnapshot(data []byte) (*Directory, error) {
	d := NewDirectory()
	r := reader{data: data}
	if r.u32() != snapMagic {
		return nil, fmt.Errorf("addr: snapshot: bad magic")
	}
	ntypes := r.u32()
	tablePages, prevType := uint64(0), -1
	var refs, sorted []RecordRef
	for i := uint32(0); i < ntypes && r.err == nil; i++ {
		t, nextSeq, nentry := TypeID(r.u16()), r.u64(), r.u32()
		if r.err != nil {
			break
		}
		if int(t) <= prevType {
			return nil, fmt.Errorf("addr: snapshot: type %d out of order", t)
		}
		prevType = int(t)
		// A table holds a page for every sequence number below nextSeq.
		pages := (nextSeq + slotsPerPage - 1) / slotsPerPage
		if nextSeq == 0 || pages > maxTablePages-tablePages {
			return nil, fmt.Errorf("addr: snapshot: type %d: next sequence number %d out of range", t, nextSeq)
		}
		tablePages += pages
		p := d.pt(t)
		p.nextSeq = nextSeq
		p.pages = make([]*[slotsPerPage]slot, pages)
		last := uint64(0)
		for j := uint32(0); j < nentry && r.err == nil; j++ {
			seq, nrefs := r.u64(), int(r.u16())
			if r.err != nil {
				break
			}
			if seq <= last || seq >= nextSeq {
				return nil, fmt.Errorf("addr: snapshot: bad or repeated address %v (next is %d)", New(t, seq), nextSeq)
			}
			last = seq
			if !r.has(nrefs * refBytes) {
				break // before a count the input cannot back sizes anything
			}
			refs = refs[:0]
			for k := 0; k < nrefs; k++ {
				refs = append(refs, RecordRef{
					Struct: StructID(r.u32()),
					Kind:   StructKind(r.u8()),
					Where:  RID{Page: r.u32(), Slot: r.u16()},
					Valid:  r.u8() == 1,
				})
			}
			sorted = append(sorted[:0], refs...)
			slices.SortFunc(sorted, func(a, b RecordRef) int { return cmp.Compare(a.Struct, b.Struct) })
			for k := 1; k < len(sorted); k++ {
				if sorted[k].Struct == sorted[k-1].Struct {
					return nil, fmt.Errorf("addr: snapshot: %w: %v struct %d", ErrDupStruct, New(t, seq), sorted[k].Struct)
				}
			}
			keep := refs // setRefs keeps all but the first
			if len(refs) > 1 {
				keep = slices.Clone(refs)
			}
			sl := p.grow(seq)
			sl.live = true
			p.count++
			p.setRefs(seq, sl, keep)
		}
		if r.err != nil {
			return nil, fmt.Errorf("addr: snapshot: type %d: %v", t, r.err)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("addr: snapshot: %v", r.err)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("addr: snapshot: %d bytes past the last type", len(data)-r.off)
	}
	return d, nil
}

// refBytes is the encoded size of one record reference.
const refBytes = 4 + 1 + 4 + 2 + 1

type reader struct {
	data []byte
	off  int
	err  error
}

// has reports whether n more bytes follow, failing the read if not.
func (r *reader) has(n int) bool {
	if r.err == nil && r.off+n > len(r.data) {
		r.err = fmt.Errorf("short read")
	}
	return r.err == nil
}

func (r *reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.data) {
		r.err = fmt.Errorf("short read")
		return make([]byte, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8   { return r.take(1)[0] }
func (r *reader) u16() uint16 { return binary.BigEndian.Uint16(r.take(2)) }
func (r *reader) u32() uint32 { return binary.BigEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.BigEndian.Uint64(r.take(8)) }
