package atom

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"prima/internal/access/addr"
)

func sampleValues() []Value {
	return []Value{
		Null(),
		Int(0), Int(-42), Int(math.MaxInt64), Int(math.MinInt64),
		Real(0), Real(3.14159), Real(-1e300), Real(math.SmallestNonzeroFloat64),
		Bool(true), Bool(false),
		Str(""), Str("hello"), Str("ünïcode ✓"),
		Ident(addr.New(3, 17)), Ref(addr.New(5, 99)),
		Record(Real(1), Real(2), Real(3)),
		Array(Int(1), Int(2)),
		Set(Ref(addr.New(1, 1)), Ref(addr.New(1, 2))),
		List(Str("a"), Str("b"), Str("c")),
		Set(), List(), Record(),
		Record(Set(Ref(addr.New(2, 1))), List(Record(Int(7), Str("nested")))),
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	for _, v := range sampleValues() {
		buf := AppendValue(nil, v)
		got, rest, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if len(rest) != 0 {
			t.Fatalf("DecodeValue(%v): %d trailing bytes", v, len(rest))
		}
		if !got.Equal(v) {
			t.Fatalf("round-trip: got %v, want %v", got, v)
		}
	}
}

func TestAtomCodecRoundTrip(t *testing.T) {
	values := sampleValues()
	buf := EncodeAtom(values)
	got, err := DecodeAtom(buf)
	if err != nil {
		t.Fatalf("DecodeAtom: %v", err)
	}
	if len(got) != len(values) {
		t.Fatalf("decoded %d attrs, want %d", len(got), len(values))
	}
	for i := range values {
		if !got[i].Equal(values[i]) {
			t.Fatalf("attr %d: got %v, want %v", i, got[i], values[i])
		}
	}
	// Trailing garbage rejected.
	if _, err := DecodeAtom(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCodecTruncation(t *testing.T) {
	buf := EncodeAtom(sampleValues())
	for cut := 0; cut < len(buf); cut += 7 {
		if _, err := DecodeAtom(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeValue([]byte{250}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestProjectionCodec(t *testing.T) {
	values := []Value{Int(1), Str("two"), Real(3.0), RefSet(addr.New(1, 5))}
	buf := EncodeProjection([]int{1, 3}, values)
	got := map[int]Value{}
	if err := DecodeProjectionFunc(buf, false, func(idx int, v Value) { got[idx] = v }); err != nil {
		t.Fatalf("DecodeProjectionFunc: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d pairs, want 2", len(got))
	}
	if !got[1].Equal(values[1]) || !got[3].Equal(values[3]) {
		t.Fatalf("projection mismatch: %v", got)
	}
	if _, ok := got[0]; ok {
		t.Fatal("projection leaked unrequested attribute")
	}
}

func TestRefHelpers(t *testing.T) {
	a1, a2, a3 := addr.New(1, 1), addr.New(1, 2), addr.New(1, 3)

	s := RefSet(a1, a2)
	if !s.ContainsRef(a1) || !s.ContainsRef(a2) || s.ContainsRef(a3) {
		t.Fatal("ContainsRef wrong")
	}
	s2 := s.WithRef(a3)
	if !s2.ContainsRef(a3) || s2.Len() != 3 {
		t.Fatal("WithRef failed")
	}
	// Adding a duplicate to a SET is a no-op.
	if s2.WithRef(a3).Len() != 3 {
		t.Fatal("WithRef duplicated a set member")
	}
	s3 := s2.WithoutRef(a2)
	if s3.ContainsRef(a2) || s3.Len() != 2 {
		t.Fatal("WithoutRef failed")
	}
	// Original values are unchanged (copy-on-write).
	if s.Len() != 2 || s2.Len() != 3 {
		t.Fatal("ref helpers mutated their receiver")
	}

	// Scalar REF behaviour.
	r := Ref(a1)
	if r.WithoutRef(a1).K != KindNull {
		t.Fatal("removing a scalar ref should yield NULL")
	}
	if Null().WithRef(a2).A != a2 {
		t.Fatal("WithRef on NULL should produce a scalar ref")
	}

	// Refs extraction from nested structures.
	nested := Record(Ref(a1), Set(Ref(a2), Ref(a3)))
	refs := slices.Collect(nested.AllRefs())
	if !slices.Equal(refs, []addr.LogicalAddr{a1, a2, a3}) {
		t.Fatalf("AllRefs = %v, want %v in element order", refs, []addr.LogicalAddr{a1, a2, a3})
	}
	// Zero addresses are skipped, a break stops the visit, and visiting
	// allocates nothing.
	nested.E[0].A = 0
	var first addr.LogicalAddr
	allocs := testing.AllocsPerRun(100, func() {
		for a := range nested.AllRefs() {
			first = a
			break
		}
	})
	if first != a2 || allocs != 0 {
		t.Fatalf("AllRefs: first = %v (want %v), %v allocs per visit (want 0)", first, a2, allocs)
	}
}

func TestEqualSetSemantics(t *testing.T) {
	a1, a2 := addr.New(1, 1), addr.New(1, 2)
	x := Set(Ref(a1), Ref(a2))
	y := Set(Ref(a2), Ref(a1))
	if !x.Equal(y) {
		t.Fatal("sets must compare order-insensitively")
	}
	// Lists are ordered.
	if List(Int(1), Int(2)).Equal(List(Int(2), Int(1))) {
		t.Fatal("lists must compare order-sensitively")
	}
	if Int(1).Equal(Real(1)) {
		t.Fatal("INT and REAL are distinct kinds for equality")
	}
}

func TestCompare(t *testing.T) {
	ordered := []Value{
		Null(),
		Int(-5), Real(-1.5), Int(0), Bool(true), Int(2), Real(2.5),
		Str(""), Str("a"), Str("b"),
		Ident(addr.New(1, 1)), Ref(addr.New(1, 2)),
		List(Int(1)), List(Int(1), Int(0)), List(Int(2)),
	}
	for i := range ordered {
		for j := range ordered {
			c := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Values at equal rank positions may compare equal (e.g. Bool(true) vs Int(1)).
			if want == 0 && c != 0 {
				t.Fatalf("Compare(%v,%v) = %d, want 0", ordered[i], ordered[j], c)
			}
			if want != 0 && c != want && c != 0 {
				t.Fatalf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], c, want)
			}
		}
	}
	// Numeric cross-kind comparison.
	if Compare(Int(2), Real(2.0)) != 0 {
		t.Fatal("Compare(2, 2.0) != 0")
	}
	// Set comparison is order-insensitive.
	if Compare(Set(Int(2), Int(1)), Set(Int(1), Int(2))) != 0 {
		t.Fatal("set comparison must sort elements")
	}
}

func TestClone(t *testing.T) {
	orig := Record(Set(Ref(addr.New(1, 1))), Str("x"))
	c := orig.Clone()
	c.E[0].E = append(c.E[0].E, Ref(addr.New(1, 2)))
	if orig.E[0].Len() != 1 {
		t.Fatal("Clone shares element storage")
	}
}

// randomValue builds a random value tree of bounded depth for property tests.
func randomValue(rng *rand.Rand, depth int) Value {
	kinds := []Kind{KindNull, KindInt, KindReal, KindBool, KindString, KindIdent, KindRef}
	if depth > 0 {
		kinds = append(kinds, KindRecord, KindArray, KindSet, KindList)
	}
	switch k := kinds[rng.Intn(len(kinds))]; k {
	case KindNull:
		return Null()
	case KindInt:
		return Int(rng.Int63() - rng.Int63())
	case KindReal:
		return Real(rng.NormFloat64() * 1e6)
	case KindBool:
		return Bool(rng.Intn(2) == 0)
	case KindString:
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return Str(string(b))
	case KindIdent:
		return Ident(addr.New(addr.TypeID(rng.Intn(10)), uint64(rng.Intn(1000))))
	case KindRef:
		return Ref(addr.New(addr.TypeID(rng.Intn(10)), uint64(rng.Intn(1000))))
	default:
		n := rng.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(rng, depth-1)
		}
		return Value{K: k, E: elems}
	}
}

// Property: encode/decode is the identity on random value trees.
func TestCodecQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		values := make([]Value, rng.Intn(10)+1)
		for i := range values {
			values[i] = randomValue(rng, 3)
		}
		got, err := DecodeAtom(EncodeAtom(values))
		if err != nil || len(got) != len(values) {
			return false
		}
		for i := range values {
			if !got[i].Equal(values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a total preorder consistent with Equal on scalars,
// antisymmetric and transitive on random samples.
func TestCompareQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(rng, 2), randomValue(rng, 2), randomValue(rng, 2)
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		if Compare(a, a) != 0 {
			return false
		}
		// Transitivity: a<=b and b<=c implies a<=c.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeAtom(b *testing.B) {
	values := []Value{
		Ident(addr.New(1, 42)), Int(1713), Str("a brep object"),
		RefSet(addr.New(2, 1), addr.New(2, 2), addr.New(2, 3), addr.New(2, 4)),
		Record(Real(1), Real(2), Real(3)),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeAtom(values)
	}
}

func BenchmarkDecodeAtom(b *testing.B) {
	values := []Value{
		Ident(addr.New(1, 42)), Int(1713), Str("a brep object"),
		RefSet(addr.New(2, 1), addr.New(2, 2), addr.New(2, 3), addr.New(2, 4)),
		Record(Real(1), Real(2), Real(3)),
	}
	buf := EncodeAtom(values)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAtom(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAppendLiteral(t *testing.T) {
	a := addr.New(7, 42)
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-12), "-12"},
		{Real(1e21), "1e+21"},
		{Real(0.25), "0.25"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Str("it's"), "'it''s'"},
		{Str(""), "''"},
		{Ident(a), "@7.42"},
		{Ref(a), "@7.42"},
		{Set(Ref(a), Ref(a)), "{@7.42, @7.42}"},
		{List(), "[]"},
		{Array(Int(1), Null()), "[1, NULL]"},
		{Record(Real(1.5), Str("x"), List(Set(Int(1)))), "(1.5, 'x', [{1}])"},
	}
	for _, tc := range cases {
		data := append(AppendValue(nil, tc.v), 0xAB) // one byte of whatever follows
		got, rest, err := AppendLiteral([]byte("> "), data)
		if err != nil || string(got) != "> "+tc.want || len(rest) != 1 {
			t.Errorf("%v: %q, %d bytes left, %v; want %q", tc.v, got, len(rest), err, tc.want)
		}
		// Every proper prefix is truncated: an error, never a panic.
		for n := 0; n < len(data)-1; n++ {
			if _, _, err := AppendLiteral(nil, data[:n]); !errors.Is(err, ErrTruncated) {
				t.Errorf("%v cut to %d bytes: %v, want ErrTruncated", tc.v, n, err)
			}
		}
	}
	if _, _, err := AppendLiteral(nil, []byte{99}); !errors.Is(err, ErrBadKind) {
		t.Errorf("unknown kind: %v", err)
	}
	deep := Int(1)
	for i := 0; i <= MaxDepth; i++ {
		deep = List(deep)
	}
	if _, _, err := AppendLiteral(nil, AppendValue(nil, deep)); !errors.Is(err, ErrTooDeep) {
		t.Errorf("%d nested lists: %v, want ErrTooDeep", MaxDepth+1, err)
	}
}

// TestImageAccessors holds the image accessors to the decoded values on the
// sample atom and on random ones (the fuzz target does the same on hostile
// bytes), and pins what molecule assembly relies on: following references and
// reading a scalar off an image allocates nothing.
func TestImageAccessors(t *testing.T) {
	vals := sampleValues()
	img, err := CheckImage(EncodeAtom(vals))
	if err != nil {
		t.Fatal(err)
	}
	checkAccessors(t, img, vals)
	checkAccessors(t, Image{}, nil)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		vals := make([]Value, rng.Intn(8))
		for i := range vals {
			vals[i] = randomValue(rng, 3)
		}
		checkAccessors(t, ImageOf(vals), vals)
	}

	refs, scalar, str := len(vals)-1, 3, 12 // Record(Set(Ref), ...), Int, Str("hello")
	var sum uint64
	if n := testing.AllocsPerRun(100, func() {
		for a := range img.Refs(refs) {
			sum += uint64(a)
		}
		sum += uint64(img.Attr(scalar).I) + uint64(len(img.Attr(str).S))
	}); n != 0 {
		t.Errorf("Refs plus two scalar Attrs allocate %v times, want 0", n)
	}
	if sum == 0 {
		t.Error("the accessors read nothing")
	}

	deep := Int(1)
	for i := 0; i <= MaxDepth; i++ {
		deep = List(deep)
	}
	if _, err := CheckImage(EncodeAtom([]Value{deep})); !errors.Is(err, ErrTooDeep) {
		t.Errorf("%d nested lists: %v, want ErrTooDeep", MaxDepth+1, err)
	}
	if _, err := DecodeAtomOwned(EncodeAtom([]Value{deep.E[0]})); err != nil {
		t.Errorf("%d nested lists: %v", MaxDepth, err)
	}
}
