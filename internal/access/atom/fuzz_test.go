package atom

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeAtom feeds hostile record images to the decoders a stored record
// passes through — DecodeAtom, DecodeAtomOwned and DecodeAtomBatch (zero-copy
// strings via unsafe.String) and DecodeProjectionFunc. A torn page or a foreign file must
// produce an error, never a panic, and never an allocation sized by a count
// the image merely claims; what decodes must re-encode to a fixed point, and
// the copying, aliasing and batch decoders must agree. The seed corpus under
// testdata/fuzz/FuzzDecodeAtom holds real images, their truncations and
// every crasher found so far (two counts that sized allocations the image
// could not back); CI runs the target for 20 s:
//
//	go test ./internal/access/atom -run '^$' -fuzz FuzzDecodeAtom -fuzztime 20s
func FuzzDecodeAtom(f *testing.F) {
	full := EncodeAtom(sampleValues())
	proj := EncodeProjection([]int{1, 3}, []Value{Int(1), Str("two"), Real(3.0), RefSet()})
	f.Add(full)
	f.Add(proj)
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []Value
		var err error
		if got, max := allocated(func() { vals, err = DecodeAtom(data) }), allocBound(data); got > max {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, max)
		}
		owned, oerr := DecodeAtomOwned(append([]byte(nil), data...))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("DecodeAtom: %v, DecodeAtomOwned: %v", err, oerr)
		}
		var batch [][]Value
		var berr error
		if got, max := allocated(func() { batch, berr = DecodeAtomBatch([][]byte{nil, append([]byte{}, data...)}) }), allocBound(data); got > max {
			t.Fatalf("batch-decoding %d bytes allocated %d, bound %d", len(data), got, max)
		}
		if (err == nil) != (berr == nil) {
			t.Fatalf("DecodeAtom: %v, DecodeAtomBatch: %v", err, berr)
		}
		if err == nil {
			// Decoding normalizes (a BOOLEAN keeps one bit), so the image
			// itself need not survive, but its first re-encoding must.
			enc := EncodeAtom(vals)
			if !bytes.Equal(enc, EncodeAtom(owned)) || !bytes.Equal(enc, EncodeAtom(batch[1])) || batch[0] != nil {
				t.Fatal("copying, aliasing and batch decoders disagree")
			}
			again, err := DecodeAtom(enc)
			if err != nil || !bytes.Equal(EncodeAtom(again), enc) {
				t.Fatalf("re-encoded image is not a fixed point: %v", err)
			}
		}

		var pairs, ownedPairs []byte
		collect := func(dst *[]byte) func(int, Value) {
			return func(idx int, v Value) { *dst = AppendValue(append(*dst, byte(idx>>8), byte(idx)), v) }
		}
		if got, max := allocated(func() { err = DecodeProjectionFunc(data, false, collect(&pairs)) }), allocBound(data); got > max {
			t.Fatalf("projection-decoding %d bytes allocated %d, bound %d", len(data), got, max)
		}
		oerr = DecodeProjectionFunc(append([]byte(nil), data...), true, collect(&ownedPairs))
		if (err == nil) != (oerr == nil) || !bytes.Equal(pairs, ownedPairs) {
			t.Fatalf("DecodeProjectionFunc copying: %v, aliasing: %v, same pairs: %v", err, oerr, bytes.Equal(pairs, ownedPairs))
		}
	})
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding an image may allocate: a Value per encoded
// byte at most (the smallest value, NULL, is one byte on disk), copied string
// payloads, and slack for the fuzz harness's own bookkeeping.
func allocBound(data []byte) uint64 { return 128*uint64(len(data)) + 64<<10 }
