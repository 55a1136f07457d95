package addr

import (
	"encoding/binary"
	"fmt"
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

// LoadSnapshot reconstructs a directory from Snapshot output.
func LoadSnapshot(data []byte) (*Directory, error) {
	d := NewDirectory()
	r := reader{data: data}
	if r.u32() != snapMagic {
		return nil, fmt.Errorf("addr: snapshot: bad magic")
	}
	ntypes := int(r.u32())
	for i := 0; i < ntypes; i++ {
		t := TypeID(r.u16())
		p := d.pt(t)
		p.nextSeq = r.u64()
		nentry := int(r.u32())
		for j := 0; j < nentry && r.err == nil; j++ {
			a := New(t, r.u64())
			nrefs := int(r.u16())
			// The table is as long as its highest sequence number: one the
			// type never handed out is a torn file, not a table to build.
			if a.Seq() == 0 || a.Seq() >= p.nextSeq || d.Revive(a) != nil {
				return nil, fmt.Errorf("addr: snapshot: bad or repeated address %v (next is %d)", a, p.nextSeq)
			}
			for k := 0; k < nrefs && r.err == nil; k++ {
				ref := RecordRef{
					Struct: StructID(r.u32()),
					Kind:   StructKind(r.u8()),
					Where:  RID{Page: r.u32(), Slot: r.u16()},
					Valid:  r.u8() == 1,
				}
				if err := d.Register(a, ref); err != nil {
					return nil, fmt.Errorf("addr: snapshot: %w", err)
				}
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("addr: snapshot truncated at type %d", t)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("addr: snapshot truncated")
	}
	return d, nil
}

type reader struct {
	data []byte
	off  int
	err  error
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
