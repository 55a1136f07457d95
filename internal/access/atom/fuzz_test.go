package atom

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"prima/internal/access/addr"
)

// FuzzDecodeAtom feeds hostile record images to everything a stored record
// passes through — CheckImage and the accessors over what it admits,
// DecodeAtom, DecodeAtomOwned (zero-copy strings via unsafe.String) and
// DecodeProjectionFunc. A torn page or a foreign file must produce an error,
// never a panic, and never an allocation sized by a count the image merely
// claims; CheckImage admits exactly what DecodeAtom decodes; what decodes
// must re-encode to a fixed point, the copying and aliasing decoders must
// agree, and on an admitted image Refs, Attr and AppendProjected must say
// what the decoded values say. The seed corpus under
// testdata/fuzz/FuzzDecodeAtom holds real images, their truncations and
// every crasher found so far (two counts that sized allocations the image
// could not back, and a nesting deeper than MaxDepth); CI runs the target
// for 20 s:
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
		var img Image
		var cerr error
		if got := allocated(func() { img, cerr = CheckImage(data) }); got > 64<<10 {
			t.Fatalf("checking %d bytes allocated %d", len(data), got)
		}
		if (err == nil) != (cerr == nil) || (err != nil && err.Error() != cerr.Error()) {
			t.Fatalf("DecodeAtom: %v, CheckImage: %v", err, cerr)
		}
		if err == nil {
			// Decoding normalizes (a BOOLEAN keeps one bit), so the image
			// itself need not survive, but its first re-encoding must.
			enc := EncodeAtom(vals)
			if !bytes.Equal(enc, EncodeAtom(owned)) || !bytes.Equal(enc, EncodeAtom(img.Values())) {
				t.Fatal("copying, aliasing and image decoders disagree")
			}
			again, err := DecodeAtom(enc)
			if err != nil || !bytes.Equal(EncodeAtom(again), enc) {
				t.Fatalf("re-encoded image is not a fixed point: %v", err)
			}
			checkAccessors(t, img, vals)
		} else {
			// A rejected image never becomes an Image; the zero Image the
			// check hands back holds no atom and no accessor minds it.
			checkAccessors(t, img, nil)
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

// checkAccessors holds the image accessors to the decoded values: Len, Attr
// and Refs attribute by attribute (one position beyond the vector included),
// and AppendProjected under two complementary keep masks.
func checkAccessors(t *testing.T, img Image, vals []Value) {
	t.Helper()
	if img.Len() != len(vals) || img.IsZero() != (vals == nil) {
		t.Fatalf("image of %d attributes (zero: %v) for %d values", img.Len(), img.IsZero(), len(vals))
	}
	for i := -1; i <= len(vals); i++ {
		var want Value
		if i >= 0 && i < len(vals) {
			want = vals[i]
		}
		if got := img.Attr(i); !bytes.Equal(AppendValue(nil, got), AppendValue(nil, want)) {
			t.Fatalf("Attr(%d) = %v, want %v", i, got, want)
		}
		var got, ref []addr.LogicalAddr
		for a := range img.Refs(i) {
			got = append(got, a)
		}
		for a := range want.AllRefs() {
			ref = append(ref, a)
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("Refs(%d) = %v, want %v", i, got, ref)
		}
		for a := range img.Refs(i) { // an early stop must stop
			if a != ref[0] {
				t.Fatalf("Refs(%d) starts with %v, want %v", i, a, ref[0])
			}
			break
		}
	}
	// Odd attributes kept, then even ones; the second mask also stops one
	// short, which drops the last attribute like a false would.
	for _, odd := range []bool{true, false} {
		keep := make([]bool, max(len(vals)-1, 0))
		projected := make([]Value, len(vals))
		for i := range keep {
			if keep[i] = (i%2 == 1) == odd; keep[i] {
				projected[i] = vals[i]
			}
		}
		dst, pimg := AppendProjected([]byte("head"), img, keep)
		if string(dst[:4]) != "head" || !bytes.Equal(dst[4:], pimg.Bytes()) {
			t.Fatalf("AppendProjected returned %q and the image %q", dst, pimg.Bytes())
		}
		if vals == nil {
			if !pimg.IsZero() {
				t.Fatalf("the zero image projects to %q", pimg.Bytes())
			}
			continue
		}
		// The kept attributes are copied as stored, so compare decoded.
		got, err := DecodeAtom(pimg.Bytes())
		if err != nil || !bytes.Equal(EncodeAtom(got), EncodeAtom(projected)) {
			t.Fatalf("AppendProjected(keep %v) decodes to %v, %v; want %v", keep, got, err, projected)
		}
	}
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
