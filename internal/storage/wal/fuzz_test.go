package wal

import (
	"encoding/binary"
	"runtime"
	"testing"

	"prima/internal/storage/device"
)

// fuzzSegBlocks sizes the log segments FuzzWALSegment recovers: two 8K
// blocks, so an input of a few tens of kilobytes spans several segments.
const fuzzSegBlocks = 2

// FuzzWALSegment feeds hostile bytes to recovery, the one reader of the log
// a crash hands arbitrary disk contents: the meta block's generation and
// replay start, then the segment stream (split into consecutive segments).
// Recover must return — with an error, or positioned for appends — never
// panic, never loop, and never allocate by a length or count the bytes merely
// claim. The applier sees only op records, and only loser ones are undone.
// Random bytes rarely carry a valid CRC, so every input also runs with each
// frame's checksum restamped, which takes the payload decoder and the
// redo/undo passes the rest of the way. The seed corpus under
// testdata/fuzz/FuzzWALSegment holds real logs, a torn tail and a stale
// generation; CI runs the target for 20 s:
//
//	go test ./internal/storage/wal -run '^$' -fuzz FuzzWALSegment -fuzztime 20s
func FuzzWALSegment(f *testing.F) {
	segBytes := fuzzSegBlocks * blockSize
	f.Fuzz(func(t *testing.T, gen, start uint64, stream []byte) {
		if len(stream) > 4*segBytes {
			stream = stream[:4*segBytes]
		}
		for _, restamp := range []bool{false, true} {
			data := stream
			if restamp {
				data = restampFrames(stream, gen, start, uint64(segBytes))
			}
			files := fuzzFiles(t, gen, start, data, segBytes)
			var l *Log
			var err error
			got := allocated(func() {
				if l, err = Open(files, Options{SegmentBlocks: fuzzSegBlocks}); err == nil {
					_, err = l.Recover(fuzzApplier{t})
				}
			})
			// Both scans read every segment they visit whole; everything else
			// is bounded by the bytes themselves.
			if bound := uint64(2*segBytes*(len(data)/segBytes+2) + 64*len(data) + 256<<10); got > bound {
				t.Fatalf("recovering %d bytes allocated %d, bound %d", len(data), got, bound)
			}
			if l == nil {
				continue
			}
			if err == nil {
				// Positioned: the tail it reloaded takes a new record.
				lsn, aerr := l.Append(&Record{Kind: RecCommit, TxID: 1})
				if aerr == nil {
					aerr = l.FlushTo(lsn + 1)
				}
				if aerr != nil {
					t.Fatalf("append after recovery: %v", aerr)
				}
			}
			l.Close()
		}
	})
}

// fuzzApplier accepts every record recovery hands it, checking that redo sees
// only op records and undo only those of a transaction.
type fuzzApplier struct{ t *testing.T }

func (a fuzzApplier) Redo(r *Record) error {
	if r.Kind != RecInsert && r.Kind != RecUpdate && r.Kind != RecDelete {
		a.t.Fatalf("redo of a %s record", r.Kind)
	}
	return nil
}

func (a fuzzApplier) Undo(r *Record) error {
	if r.TxID == 0 {
		a.t.Fatalf("undo of an autocommit %s record", r.Kind)
	}
	return a.Redo(r)
}

// fuzzFiles builds an in-memory file manager holding a meta block with gen
// and start and the stream as consecutive segments.
func fuzzFiles(t *testing.T, gen, start uint64, stream []byte, segBytes int) *device.Manager {
	files := device.NewManager("")
	meta := make([]byte, device.B512)
	binary.LittleEndian.PutUint64(meta[0:], metaMagic)
	binary.LittleEndian.PutUint64(meta[8:], gen)
	binary.LittleEndian.PutUint64(meta[16:], start)
	binary.LittleEndian.PutUint32(meta[32:], crcBytes(meta[:32]))
	write := func(name string, bs int, data []byte) {
		d, err := files.Open(name, bs)
		if err != nil {
			t.Fatal(err)
		}
		n := (len(data) + bs - 1) / bs
		if _, err := d.Extend(n); err != nil {
			t.Fatal(err)
		}
		blk := make([]byte, bs)
		for i := 0; i < n; i++ {
			clear(blk)
			copy(blk, data[i*bs:])
			if err := d.WriteBlock(i, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(metaName, device.B512, meta)
	for i := 0; i*segBytes < len(stream); i++ {
		write(segName(uint64(i)), blockSize, stream[i*segBytes:min(len(stream), (i+1)*segBytes)])
	}
	return files
}

// restampFrames returns a copy of stream whose frames, walked from start the
// way recovery walks them, carry valid checksums under gen.
func restampFrames(stream []byte, gen, start, segBytes uint64) []byte {
	out := append([]byte(nil), stream...)
	for off := start; off < uint64(len(out)) && uint64(len(out))-off >= recHeaderSize; {
		segEnd := (off/segBytes + 1) * segBytes
		if segEnd-off < recHeaderSize {
			off = segEnd
			continue
		}
		length := uint64(binary.LittleEndian.Uint32(out[off:]))
		if length == 0 {
			if binary.LittleEndian.Uint32(out[off+4:]) != padMagic {
				break
			}
			off = segEnd
			continue
		}
		end := off + recHeaderSize + length
		if end > segEnd || end > uint64(len(out)) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], recCRC(gen, off, out[off+recHeaderSize:end]))
		off = end
	}
	return out
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
