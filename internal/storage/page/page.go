// Package page implements the slotted page format used throughout PRIMA's
// storage and access systems.
//
// Pages are fixed-size byte arrays (one of the five file-manager block
// sizes). Every page carries the "usual page header used for identification,
// description, and fault tolerance" (§3.3): a magic number, page type, its
// own address, a chain pointer, an LSN field and a checksum. The body is a
// classic slotted layout: record data grows downward from the header while a
// slot directory grows upward from the page end, so variable-length physical
// records (§3.2: "byte strings of variable length") can be stored, moved and
// compacted without changing their externally visible slot numbers.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Type identifies what a page is used for.
type Type uint8

// Page types.
const (
	TypeFree      Type = iota // unallocated
	TypeSegHeader             // segment header (allocation bitmap)
	TypeData                  // container page holding physical records
	TypeIndex                 // B*-tree node
	TypeSeqHeader             // page-sequence header page
	TypeSeqBody               // page-sequence component page
	TypeMeta                  // catalog / directory snapshots
)

func (t Type) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeSegHeader:
		return "segheader"
	case TypeData:
		return "data"
	case TypeIndex:
		return "index"
	case TypeSeqHeader:
		return "seqheader"
	case TypeSeqBody:
		return "seqbody"
	case TypeMeta:
		return "meta"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header layout (all integers big-endian):
//
//	off  0: magic      uint16  'P','R'
//	off  2: type       uint8
//	off  3: flags      uint8
//	off  4: pageNo     uint32  page number within its segment
//	off  8: segID      uint32  owning segment
//	off 12: slotCount  uint16
//	off 14: freeStart  uint16  first byte of free space
//	off 16: freeEnd    uint16  one past last byte of free space (slots begin here)
//	off 18: next       uint32  chain pointer (free list, overflow, sequences)
//	off 22: lsn        uint64
//	off 30: checksum   uint32  CRC-32C over the page with this field zeroed
//	off 34: reserved   uint16
const (
	HeaderSize = 36

	offMagic     = 0
	offType      = 2
	offFlags     = 3
	offPageNo    = 4
	offSegID     = 8
	offSlotCount = 12
	offFreeStart = 14
	offFreeEnd   = 16
	offNext      = 18
	offLSN       = 22
	offChecksum  = 30
)

const (
	magic = 0x5052 // "PR"

	slotSize = 4 // offset uint16 + length uint16

	// tombstone marks a deleted slot; its number may be reused.
	tombstone = 0xFFFF
)

// Errors returned by page operations.
var (
	ErrNoSpace     = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: invalid slot")
	ErrBadMagic    = errors.New("page: bad magic (not a PRIMA page)")
	ErrBadChecksum = errors.New("page: checksum mismatch")
	ErrTooLarge    = errors.New("page: record larger than page capacity")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Page is a view over a fixed-size block. The zero value is unusable; call
// Init on a buffer first (or read an initialized page from disk).
type Page []byte

// Init formats p as an empty page of the given type and identity.
func (p Page) Init(t Type, segID, pageNo uint32) {
	for i := range p {
		p[i] = 0
	}
	binary.BigEndian.PutUint16(p[offMagic:], magic)
	p[offType] = byte(t)
	binary.BigEndian.PutUint32(p[offPageNo:], pageNo)
	binary.BigEndian.PutUint32(p[offSegID:], segID)
	binary.BigEndian.PutUint16(p[offFreeStart:], HeaderSize)
	binary.BigEndian.PutUint16(p[offFreeEnd:], uint16(len(p)))
}

// Validate checks magic and checksum. It is called when a page enters the
// buffer pool from disk.
func (p Page) Validate() error {
	if len(p) < HeaderSize {
		return ErrBadMagic
	}
	if binary.BigEndian.Uint16(p[offMagic:]) != magic {
		return ErrBadMagic
	}
	stored := binary.BigEndian.Uint32(p[offChecksum:])
	if stored != 0 && stored != p.computeChecksum() {
		return ErrBadChecksum
	}
	return nil
}

// SealChecksum computes and stores the page checksum. The buffer manager
// calls it immediately before a page is written to its device.
func (p Page) SealChecksum() {
	binary.BigEndian.PutUint32(p[offChecksum:], 0)
	binary.BigEndian.PutUint32(p[offChecksum:], p.computeChecksum())
}

// zeroChecksum stands in for the checksum field while the sum is computed.
var zeroChecksum [4]byte

func (p Page) computeChecksum() uint32 {
	// Not a hash.Hash32 nor a local zero field: either is a heap object per
	// call, and the buffer validates every page it reads.
	sum := crc32.Update(0, castagnoli, p[:offChecksum])
	sum = crc32.Update(sum, castagnoli, zeroChecksum[:])
	sum = crc32.Update(sum, castagnoli, p[offChecksum+4:])
	if sum == 0 {
		sum = 1 // reserve 0 for "not sealed"
	}
	return sum
}

// Type returns the page type.
func (p Page) Type() Type { return Type(p[offType]) }

// SetType changes the page type.
func (p Page) SetType(t Type) { p[offType] = byte(t) }

// PageNo returns the page's number within its segment.
func (p Page) PageNo() uint32 { return binary.BigEndian.Uint32(p[offPageNo:]) }

// SegID returns the owning segment's id.
func (p Page) SegID() uint32 { return binary.BigEndian.Uint32(p[offSegID:]) }

// Next returns the chain pointer.
func (p Page) Next() uint32 { return binary.BigEndian.Uint32(p[offNext:]) }

// SetNext stores the chain pointer.
func (p Page) SetNext(n uint32) { binary.BigEndian.PutUint32(p[offNext:], n) }

// LSN returns the page's log sequence number field.
func (p Page) LSN() uint64 { return binary.BigEndian.Uint64(p[offLSN:]) }

// SetLSN stores the page's log sequence number field.
func (p Page) SetLSN(l uint64) { binary.BigEndian.PutUint64(p[offLSN:], l) }

// Flags returns the page flags byte.
func (p Page) Flags() uint8 { return p[offFlags] }

// SetFlags stores the page flags byte.
func (p Page) SetFlags(f uint8) { p[offFlags] = f }

func (p Page) slotCount() int { return int(binary.BigEndian.Uint16(p[offSlotCount:])) }
func (p Page) freeStart() int { return int(binary.BigEndian.Uint16(p[offFreeStart:])) }
func (p Page) freeEnd() int   { return int(binary.BigEndian.Uint16(p[offFreeEnd:])) }
func (p Page) setSlotCount(n int) {
	binary.BigEndian.PutUint16(p[offSlotCount:], uint16(n))
}
func (p Page) setFreeStart(n int) {
	binary.BigEndian.PutUint16(p[offFreeStart:], uint16(n))
}
func (p Page) setFreeEnd(n int) {
	binary.BigEndian.PutUint16(p[offFreeEnd:], uint16(n))
}

// slotPos returns the byte offset of slot i's directory entry.
func (p Page) slotPos(i int) int { return len(p) - (i+1)*slotSize }

func (p Page) slot(i int) (off, length int) {
	pos := p.slotPos(i)
	return int(binary.BigEndian.Uint16(p[pos:])), int(binary.BigEndian.Uint16(p[pos+2:]))
}

func (p Page) setSlot(i, off, length int) {
	pos := p.slotPos(i)
	binary.BigEndian.PutUint16(p[pos:], uint16(off))
	binary.BigEndian.PutUint16(p[pos+2:], uint16(length))
}

// Slots returns the number of slot directory entries, including tombstones.
func (p Page) Slots() int { return p.slotCount() }

// Records returns the number of live (non-tombstone) records.
func (p Page) Records() int {
	n := 0
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off != tombstone {
			n++
		}
	}
	return n
}

// FreeSpace returns the bytes available for a new record, accounting for the
// slot directory entry a fresh insert may need.
func (p Page) FreeSpace() int {
	free := p.freeEnd() - p.freeStart()
	// A new record may reuse a tombstone slot; if none exists it needs a
	// new directory entry.
	if !p.hasTombstone() {
		free -= slotSize
	}
	if free < 0 {
		return 0
	}
	return free
}

func (p Page) hasTombstone() bool {
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == tombstone {
			return true
		}
	}
	return false
}

// Capacity returns the maximum record size an empty page of this size can
// hold.
func (p Page) Capacity() int { return len(p) - HeaderSize - slotSize }

// Insert stores rec in the page and returns its slot number. It compacts the
// page if the free space is sufficient but fragmented, and returns ErrNoSpace
// if the record cannot fit.
func (p Page) Insert(rec []byte) (int, error) {
	if len(rec) > p.Capacity() {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(rec), p.Capacity())
	}
	slot := -1
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == tombstone {
			slot = i
			break
		}
	}
	need := len(rec)
	if slot == -1 {
		need += slotSize
	}
	if p.freeEnd()-p.freeStart() < need {
		if p.deadBytes() >= need-(p.freeEnd()-p.freeStart()) {
			p.Compact()
		}
		if p.freeEnd()-p.freeStart() < need {
			return 0, ErrNoSpace
		}
	}
	if slot == -1 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
		p.setFreeEnd(p.freeEnd() - slotSize)
		// Re-check: claiming the directory entry shrank free space.
		if p.freeEnd()-p.freeStart() < len(rec) {
			// Roll back the directory growth.
			p.setSlotCount(slot)
			p.setFreeEnd(p.freeEnd() + slotSize)
			return 0, ErrNoSpace
		}
	}
	off := p.freeStart()
	copy(p[off:], rec)
	p.setSlot(slot, off, len(rec))
	p.setFreeStart(off + len(rec))
	return slot, nil
}

// deadBytes returns the bytes held by records that were deleted or moved
// (recoverable by Compact).
func (p Page) deadBytes() int {
	used := 0
	for i := 0; i < p.slotCount(); i++ {
		if off, l := p.slot(i); off != tombstone {
			used += l
			_ = off
		}
	}
	return p.freeStart() - HeaderSize - used
}

// Read returns the record stored in slot. The returned slice aliases the
// page; callers that hold it across page modifications must copy it.
func (p Page) Read(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, p.slotCount())
	}
	off, l := p.slot(slot)
	if off == tombstone {
		return nil, fmt.Errorf("%w: %d deleted", ErrBadSlot, slot)
	}
	return p[off : off+l], nil
}

// Update replaces the record in slot with rec, in place when possible. It
// returns ErrNoSpace when the page cannot hold the new version even after
// compaction; the caller is then responsible for moving the record.
func (p Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.slotCount() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, p.slotCount())
	}
	off, l := p.slot(slot)
	if off == tombstone {
		return fmt.Errorf("%w: %d deleted", ErrBadSlot, slot)
	}
	if len(rec) <= l {
		copy(p[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	// Grow: release the old image, then place the new one.
	p.setSlot(slot, tombstone, 0)
	if p.freeEnd()-p.freeStart() < len(rec) {
		if p.deadBytes() >= len(rec)-(p.freeEnd()-p.freeStart()) && len(rec) <= p.Capacity() {
			p.Compact()
		}
		if p.freeEnd()-p.freeStart() < len(rec) {
			// Restore the old image so the caller can relocate it.
			p.setSlot(slot, off, l)
			return ErrNoSpace
		}
	}
	noff := p.freeStart()
	copy(p[noff:], rec)
	p.setSlot(slot, noff, len(rec))
	p.setFreeStart(noff + len(rec))
	return nil
}

// Delete removes the record in slot, leaving a reusable tombstone entry.
func (p Page) Delete(slot int) error {
	if slot < 0 || slot >= p.slotCount() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, p.slotCount())
	}
	if off, _ := p.slot(slot); off == tombstone {
		return fmt.Errorf("%w: %d already deleted", ErrBadSlot, slot)
	}
	p.setSlot(slot, tombstone, 0)
	// Trim trailing tombstones so the directory can shrink.
	n := p.slotCount()
	for n > 0 {
		if off, _ := p.slot(n - 1); off != tombstone {
			break
		}
		n--
	}
	if n != p.slotCount() {
		p.setFreeEnd(p.freeEnd() + (p.slotCount()-n)*slotSize)
		p.setSlotCount(n)
	}
	return nil
}

// Compact squeezes out dead bytes by sliding live records toward the header.
// Slot numbers are preserved.
func (p Page) Compact() {
	type ent struct{ slot, off, len int }
	live := make([]ent, 0, p.slotCount())
	for i := 0; i < p.slotCount(); i++ {
		if off, l := p.slot(i); off != tombstone {
			live = append(live, ent{i, off, l})
		}
	}
	// Records must be moved in ascending offset order to avoid overwrites.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].off < live[j-1].off; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	w := HeaderSize
	for _, e := range live {
		if e.off != w {
			copy(p[w:], p[e.off:e.off+e.len])
		}
		p.setSlot(e.slot, w, e.len)
		w += e.len
	}
	p.setFreeStart(w)
}

// ForEach calls fn for every live record in slot order. If fn returns false
// iteration stops.
func (p Page) ForEach(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.slotCount(); i++ {
		off, l := p.slot(i)
		if off == tombstone {
			continue
		}
		if !fn(i, p[off:off+l]) {
			return
		}
	}
}

// Body returns the page payload area (everything after the header) for page
// types that manage their own layout (segment headers, sequence headers,
// index nodes).
func (p Page) Body() []byte { return p[HeaderSize:] }
