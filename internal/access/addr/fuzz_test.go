package addr

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"
)

// FuzzLoadSnapshot feeds hostile bytes to LoadSnapshot, which reads the
// directory.snap a checkpoint left behind. A torn or foreign file must
// produce an error, never a panic, and never an allocation sized by a count
// or a sequence number the file merely claims; whatever loads must
// re-snapshot to bytes that load to the same directory. The
// seeds are a real snapshot (sparse after deletes, several references per
// atom), a truncation of it, and a file naming one atom at sequence number
// 2^39, which once made the loader grow a table of 2^30 page pointers. CI
// runs the target for 20 s:
//
//	go test ./internal/access/addr -run '^$' -fuzz FuzzLoadSnapshot -fuzztime 20s
func FuzzLoadSnapshot(f *testing.F) {
	snap := sampleDirectory().Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)-7])
	f.Add(hostileSnapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		var d *Directory
		var err error
		if got, max := allocated(func() { d, err = LoadSnapshot(data) }), snapAllocBound(data); got > max {
			t.Fatalf("loading %d bytes allocated %d, bound %d", len(data), got, max)
		}
		if err != nil {
			return
		}
		again := d.Snapshot()
		if len(again) != len(data) {
			t.Fatalf("accepted %d bytes re-snapshot to %d", len(data), len(again))
		}
		d2, err := LoadSnapshot(again)
		if err != nil {
			t.Fatalf("re-snapshot does not load: %v", err)
		}
		if !bytes.Equal(d2.Snapshot(), again) {
			t.Fatal("re-snapshot loads to another directory")
		}
	})
}

// sampleDirectory is two types after mass deletes: type 1 keeps 3 of 5,000
// atoms, type 7 all of its 40, every other one with a second record.
func sampleDirectory() *Directory {
	d := NewDirectory()
	var ones []LogicalAddr
	for i := 0; i < 5000; i++ {
		ones = append(ones, newAddr(d, 1))
	}
	for i, a := range ones {
		if i == 10 || i == 2600 || i == 4998 {
			d.Register(a, RecordRef{Kind: KindPrimary, Where: RID{Page: uint32(i), Slot: 3}, Valid: true})
			continue
		}
		d.Release(a)
	}
	for i := 0; i < 40; i++ {
		a := newAddr(d, 7)
		d.Register(a, RecordRef{Kind: KindPrimary, Where: RID{Page: uint32(i)}, Valid: true})
		if i%2 == 0 {
			d.Register(a, RecordRef{Struct: 9, Kind: KindSortOrder, Where: RID{Page: 100, Slot: uint16(i)}, Valid: i%4 == 0})
		}
	}
	return d
}

// hostileSnapshot is the magic, one type whose next sequence number is
// 2^40, and one atom without references at sequence number 2^39.
func hostileSnapshot() []byte {
	b := binary.BigEndian.AppendUint32(nil, snapMagic)
	b = binary.BigEndian.AppendUint32(b, 1)
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint64(b, 1<<40)
	b = binary.BigEndian.AppendUint32(b, 1)
	b = binary.BigEndian.AppendUint64(b, 1<<39)
	return binary.BigEndian.AppendUint16(b, 0)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// snapAllocBound is what loading a snapshot may allocate: the page pointers
// of every table (the fixed ceiling), one table page per encoded entry (an
// entry is at least 10 bytes), the type headers and reference lists the
// bytes pay for, and slack for the fuzz harness's own bookkeeping.
func snapAllocBound(data []byte) uint64 {
	const pageBytes = slotsPerPage * uint64(unsafe.Sizeof(slot{}))
	n := uint64(len(data))
	return 8*maxTablePages + pageBytes*(n/10) + 256*n + 2<<20
}
