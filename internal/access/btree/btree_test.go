package btree

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/storage/buffer"
	"prima/internal/storage/device"
	"prima/internal/storage/segment"
)

func newTree(t testing.TB, blockSize int) *BTree {
	t.Helper()
	dev, err := device.NewMem(blockSize)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	seg, err := segment.Create(dev, 1, 65536)
	if err != nil {
		t.Fatalf("Create segment: %v", err)
	}
	pool := buffer.NewPool(buffer.NewSizeAwareLRU(1 << 20))
	tr, err := Create(seg, pool)
	if err != nil {
		t.Fatalf("Create tree: %v", err)
	}
	return tr
}

func TestInsertSearchSmall(t *testing.T) {
	tr := newTree(t, device.B1K)
	for i := 0; i < 10; i++ {
		if err := tr.Insert(atom.Int(int64(i)), addr.New(1, uint64(i+1))); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tr.Len())
	}
	for i := 0; i < 10; i++ {
		got, err := tr.Search(atom.Int(int64(i)))
		if err != nil {
			t.Fatalf("Search %d: %v", i, err)
		}
		if len(got) != 1 || got[0] != addr.New(1, uint64(i+1)) {
			t.Fatalf("Search %d = %v", i, got)
		}
	}
	if got, _ := tr.Search(atom.Int(99)); len(got) != 0 {
		t.Fatalf("Search absent = %v", got)
	}
}

func TestDuplicateKeysDistinctAddrs(t *testing.T) {
	tr := newTree(t, device.B1K)
	key := atom.Str("dup")
	for i := 1; i <= 5; i++ {
		if err := tr.Insert(key, addr.New(1, uint64(i))); err != nil {
			t.Fatalf("Insert dup %d: %v", i, err)
		}
	}
	// Exact duplicate (key, addr) rejected.
	if err := tr.Insert(key, addr.New(1, 3)); !errors.Is(err, ErrDupEntry) {
		t.Fatalf("duplicate entry = %v, want ErrDupEntry", err)
	}
	got, err := tr.Search(key)
	if err != nil || len(got) != 5 {
		t.Fatalf("Search = %v (%v), want 5 addrs", got, err)
	}
	// Delete one duplicate; others remain.
	if err := tr.Delete(key, addr.New(1, 3)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	got, _ = tr.Search(key)
	if len(got) != 4 {
		t.Fatalf("after delete: %d addrs, want 4", len(got))
	}
	if err := tr.Delete(key, addr.New(1, 3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
}

func TestSplitsAndHeight(t *testing.T) {
	tr := newTree(t, device.B512) // small pages force splits early
	const n = 2000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(atom.Int(int64(i)), addr.New(1, uint64(i+1))); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatalf("Height: %v", err)
	}
	if h < 3 {
		t.Fatalf("height = %d; expected a deep tree on 512-byte pages", h)
	}
	// All keys present, in order.
	var keys []int64
	err = tr.Scan(nil, nil, false, func(k atom.Value, a addr.LogicalAddr) bool {
		keys = append(keys, k.I)
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(keys) != n {
		t.Fatalf("scan saw %d keys, want %d", len(keys), n)
	}
	for i := range keys {
		if keys[i] != int64(i) {
			t.Fatalf("keys[%d] = %d, out of order", i, keys[i])
		}
	}
}

func TestScanRange(t *testing.T) {
	tr := newTree(t, device.B512)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(atom.Int(int64(i*2)), addr.New(1, uint64(i+1))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	start, stop := atom.Int(10), atom.Int(20)

	var asc []int64
	if err := tr.Scan(&start, &stop, false, func(k atom.Value, _ addr.LogicalAddr) bool {
		asc = append(asc, k.I)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(asc) != len(want) {
		t.Fatalf("asc = %v, want %v", asc, want)
	}
	for i := range want {
		if asc[i] != want[i] {
			t.Fatalf("asc = %v, want %v", asc, want)
		}
	}

	var desc []int64
	if err := tr.Scan(&start, &stop, true, func(k atom.Value, _ addr.LogicalAddr) bool {
		desc = append(desc, k.I)
		return true
	}); err != nil {
		t.Fatalf("Scan desc: %v", err)
	}
	if len(desc) != len(want) {
		t.Fatalf("desc = %v", desc)
	}
	for i := range want {
		if desc[i] != want[len(want)-1-i] {
			t.Fatalf("desc = %v", desc)
		}
	}

	// Open-ended scans.
	n := 0
	tr.Scan(&stop, nil, false, func(atom.Value, addr.LogicalAddr) bool { n++; return true })
	if n != 90 {
		t.Fatalf("open-stop scan = %d, want 90", n)
	}
	n = 0
	tr.Scan(nil, &start, true, func(atom.Value, addr.LogicalAddr) bool { n++; return true })
	if n != 6 {
		t.Fatalf("open-start desc scan = %d, want 6", n)
	}

	// Early termination.
	n = 0
	tr.Scan(nil, nil, false, func(atom.Value, addr.LogicalAddr) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop = %d", n)
	}
}

func TestDeleteMany(t *testing.T) {
	tr := newTree(t, device.B512)
	const n = 800
	for i := 0; i < n; i++ {
		if err := tr.Insert(atom.Int(int64(i)), addr.New(1, uint64(i+1))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Delete every other key.
	for i := 0; i < n; i += 2 {
		if err := tr.Delete(atom.Int(int64(i)), addr.New(1, uint64(i+1))); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	var keys []int64
	tr.Scan(nil, nil, false, func(k atom.Value, _ addr.LogicalAddr) bool {
		keys = append(keys, k.I)
		return true
	})
	if len(keys) != n/2 {
		t.Fatalf("scan after deletes = %d keys", len(keys))
	}
	for i, k := range keys {
		if k != int64(2*i+1) {
			t.Fatalf("keys[%d] = %d, want %d", i, k, 2*i+1)
		}
	}
}

func TestMixedKeyKinds(t *testing.T) {
	tr := newTree(t, device.B1K)
	keys := []atom.Value{
		atom.Int(5), atom.Real(2.5), atom.Str("alpha"), atom.Str("beta"),
		atom.Real(-1), atom.Int(1000000),
	}
	for i, k := range keys {
		if err := tr.Insert(k, addr.New(2, uint64(i+1))); err != nil {
			t.Fatalf("Insert %v: %v", k, err)
		}
	}
	var got []atom.Value
	tr.Scan(nil, nil, false, func(k atom.Value, _ addr.LogicalAddr) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("scan = %d keys", len(got))
	}
	for i := 1; i < len(got); i++ {
		if atom.Compare(got[i-1], got[i]) > 0 {
			t.Fatalf("scan out of order at %d: %v > %v", i, got[i-1], got[i])
		}
	}
}

func TestPersistence(t *testing.T) {
	dev, _ := device.NewMem(device.B1K)
	seg, err := segment.Create(dev, 1, 65536)
	if err != nil {
		t.Fatalf("segment: %v", err)
	}
	pool := buffer.NewPool(buffer.NewSizeAwareLRU(1 << 20))
	tr, err := Create(seg, pool)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(atom.Int(int64(i)), addr.New(1, uint64(i+1))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	pool2 := buffer.NewPool(buffer.NewSizeAwareLRU(1 << 20))
	tr2, err := Open(seg, pool2, tr.MetaPage())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Len() != 500 {
		t.Fatalf("reopened Len = %d", tr2.Len())
	}
	got, err := tr2.Search(atom.Int(250))
	if err != nil || len(got) != 1 {
		t.Fatalf("reopened Search = %v, %v", got, err)
	}

	// Opening a non-meta page fails.
	if _, err := Open(seg, pool2, tr.MetaPage()+1); err == nil {
		t.Fatal("Open of non-meta page accepted")
	}
}

func TestKeyTooLarge(t *testing.T) {
	tr := newTree(t, device.B512)
	big := atom.Str(string(make([]byte, 400)))
	if err := tr.Insert(big, addr.New(1, 1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("huge key = %v, want ErrKeyTooLarge", err)
	}
}

// Property: the tree agrees with a sorted reference model under random
// insert/delete, for both scan directions.
func TestBTreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(t, device.B512)
		type ent struct {
			k int64
			a addr.LogicalAddr
		}
		model := map[ent]bool{}
		for op := 0; op < 400; op++ {
			k := int64(rng.Intn(50)) // small domain forces duplicates
			a := addr.New(1, uint64(rng.Intn(20)+1))
			e := ent{k, a}
			if rng.Intn(3) > 0 {
				err := tr.Insert(atom.Int(k), a)
				if model[e] {
					if !errors.Is(err, ErrDupEntry) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					model[e] = true
				}
			} else {
				err := tr.Delete(atom.Int(k), a)
				if model[e] {
					if err != nil {
						return false
					}
					delete(model, e)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		var want []ent
		for e := range model {
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].k != want[j].k {
				return want[i].k < want[j].k
			}
			return want[i].a < want[j].a
		})
		var got []ent
		if err := tr.Scan(nil, nil, false, func(k atom.Value, a addr.LogicalAddr) bool {
			got = append(got, ent{k.I, a})
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		// Descending scan is the exact reverse.
		var rev []ent
		if err := tr.Scan(nil, nil, true, func(k atom.Value, a addr.LogicalAddr) bool {
			rev = append(rev, ent{k.I, a})
			return true
		}); err != nil {
			return false
		}
		if len(rev) != len(want) {
			return false
		}
		for i := range want {
			if rev[i] != want[len(want)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	tr := newTree(b, device.B4K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(atom.Int(int64(i)), addr.New(1, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeSearch(b *testing.B) {
	tr := newTree(b, device.B4K)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := tr.Insert(atom.Int(int64(i)), addr.New(1, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Search(atom.Int(int64(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}

// decodedEntries walks the leaf chain through readNode — the decoded-node
// path the mutations use — and returns every entry in key order.
func decodedEntries(t *testing.T, tr *BTree) (all []entry, leafEnds map[int]bool) {
	t.Helper()
	no := tr.root
	for {
		leaf, entries, _, err := tr.loadNode(no)
		if err != nil {
			t.Fatalf("loadNode: %v", err)
		}
		if leaf {
			break
		}
		no = entries[0].child
	}
	leafEnds = map[int]bool{}
	for no != 0 {
		_, entries, next, err := tr.loadNode(no)
		if err != nil {
			t.Fatalf("loadNode: %v", err)
		}
		if len(entries) > 0 {
			leafEnds[len(all)] = true
			leafEnds[len(all)+len(entries)-1] = true
		}
		all = append(all, entries...)
		no = next
	}
	return all, leafEnds
}

// TestProbedReadsMatchDecodedNodes holds the read path, which binary-searches
// the fixed page and decodes only the probed keys, to the answers of the
// decoded-node path: point lookups and range scans over random keys with
// duplicates, absent keys, and the first and last slot of every leaf.
func TestProbedReadsMatchDecodedNodes(t *testing.T) {
	tr := newTree(t, device.B1K)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		// Keys in [0, 600): every key about five times, each with its own address.
		if err := tr.Insert(atom.Int(int64(2*rng.Intn(300))), addr.New(1, uint64(i+1))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	all, _ := decodedEntries(t, tr)
	// Leave some leaves thin (random deletes in the first quarter) and some
	// empty (a run of consecutive entries in the middle).
	doomed := rng.Perm(len(all) / 4)[:500]
	for i := len(all) / 2; i < len(all)/2+150; i++ {
		doomed = append(doomed, i)
	}
	for _, i := range doomed {
		if err := tr.Delete(all[i].key, all[i].addr); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if h, _ := tr.Height(); h < 3 {
		t.Fatalf("height %d: the test wants internal levels to descend", h)
	}
	var leafEnds map[int]bool
	all, leafEnds = decodedEntries(t, tr)

	want := func(start, stop *atom.Value) []addr.LogicalAddr {
		var out []addr.LogicalAddr
		for _, e := range all {
			if (start == nil || atom.Compare(e.key, *start) >= 0) && (stop == nil || atom.Compare(e.key, *stop) <= 0) {
				out = append(out, e.addr)
			}
		}
		return out
	}
	check := func(start, stop *atom.Value) {
		t.Helper()
		var got []addr.LogicalAddr
		if err := tr.Scan(start, stop, false, func(_ atom.Value, a addr.LogicalAddr) bool {
			got = append(got, a)
			return true
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if w := want(start, stop); !slices.Equal(got, w) {
			t.Fatalf("Scan[%v, %v] = %d entries %v, decoded nodes give %d %v", start, stop, len(got), got, len(w), w)
		}
	}
	// Point lookups: every key at a leaf boundary, then present (even) and
	// absent (odd, negative, past-the-end) keys.
	for i := range leafEnds {
		k := all[i].key
		got, err := tr.Search(k)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if w := want(&k, &k); !slices.Equal(got, w) {
			t.Fatalf("Search(%v) at a leaf boundary = %v, decoded nodes give %v", k, got, w)
		}
	}
	for k := int64(-2); k < 604; k++ {
		key := atom.Int(k)
		check(&key, &key)
	}
	// Range scans: open and closed bounds, empty and inverted ranges.
	check(nil, nil)
	for i := 0; i < 300; i++ {
		lo, hi := atom.Int(int64(rng.Intn(620)-10)), atom.Int(int64(rng.Intn(620)-10))
		check(&lo, &hi)
		check(&lo, nil)
		check(nil, &hi)
	}
}

// scanAll collects a tree's entries between the bounds in one direction.
func scanAll(t *testing.T, tr *BTree, start, stop *atom.Value, desc bool) []Pair {
	t.Helper()
	var out []Pair
	if err := tr.Scan(start, stop, desc, func(k atom.Value, a addr.LogicalAddr) bool {
		out = append(out, Pair{Key: k, Addr: a})
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

// modelScan is Scan over a sorted slice of the live pairs.
func modelScan(live []Pair, start, stop *atom.Value, desc bool) []Pair {
	lo, hi := 0, len(live)
	if start != nil {
		lo = sort.Search(len(live), func(i int) bool { return atom.Compare(live[i].Key, *start) >= 0 })
	}
	if stop != nil {
		hi = sort.Search(len(live), func(i int) bool { return atom.Compare(live[i].Key, *stop) > 0 })
	}
	out := slices.Clone(live[lo:max(lo, hi)])
	if desc {
		slices.Reverse(out)
	}
	return out
}

// sameAsModel fails unless each tree answers Search and scans both ways,
// bounded and open, as the sorted slice of live pairs does.
func sameAsModel(t *testing.T, live []Pair, keys int, trees ...*BTree) {
	t.Helper()
	slices.SortFunc(live, func(x, y Pair) int { return cmp(x.Key, x.Addr, y.Key, y.Addr) })
	check := func(what string, got, want []Pair) {
		t.Helper()
		if !slices.EqualFunc(got, want, func(p, q Pair) bool { return p.Addr == q.Addr && p.Key.Equal(q.Key) }) {
			t.Fatalf("%s: %d entries, want %d (or other entries)", what, len(got), len(want))
		}
	}
	for ti, tr := range trees {
		if tr.Len() != len(live) {
			t.Fatalf("tree %d: Len %d, want %d", ti, tr.Len(), len(live))
		}
		for _, desc := range []bool{false, true} {
			check("full scan", scanAll(t, tr, nil, nil, desc), modelScan(live, nil, nil, desc))
			for k := -1; k <= keys; k += 29 {
				lo, hi := atom.Int(int64(k)), atom.Int(int64(k+11))
				check("bounded scan", scanAll(t, tr, &lo, &hi, desc), modelScan(live, &lo, &hi, desc))
				check("open start", scanAll(t, tr, nil, &hi, desc), modelScan(live, nil, &hi, desc))
				check("open stop", scanAll(t, tr, &lo, nil, desc), modelScan(live, &lo, nil, desc))
			}
		}
		for k := -1; k <= keys; k += 3 {
			key := atom.Int(int64(k))
			got, err := tr.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			var want []addr.LogicalAddr
			for _, p := range modelScan(live, &key, &key, false) {
				want = append(want, p.Addr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("tree %d: Search(%d) = %v, want %v", ti, k, got, want)
			}
		}
	}
}

// TestBuildMatchesInserts builds a tree bottom-up from shuffled pairs, with
// duplicate keys over three levels of small nodes, and a tree that takes the
// same pairs one Insert at a time. Both must answer Search and scans both
// ways as a sorted slice does, and go on doing so through later Inserts and
// Deletes. (Descending scans bounded at a key whose duplicates span two
// leaves used to miss entries in either tree.)
func TestBuildMatchesInserts(t *testing.T) {
	const keys = 1500
	rng := rand.New(rand.NewSource(3))
	var live []Pair
	for seq := uint64(1); seq <= 3*keys; seq++ {
		live = append(live, Pair{Key: atom.Int(int64(rng.Intn(keys))), Addr: addr.New(1, seq)})
	}
	built, inserted := newTree(t, device.B1K), newTree(t, device.B1K)
	for _, p := range live {
		if err := inserted.Insert(p.Key, p.Addr); err != nil {
			t.Fatal(err)
		}
	}
	pairs := slices.Clone(live)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if err := built.Build(pairs); err != nil {
		t.Fatal(err)
	}
	if h, err := built.Height(); err != nil || h < 3 {
		t.Fatalf("built tree height %d (%v), want at least 3 levels", h, err)
	}
	sameAsModel(t, live, keys, built, inserted)

	for seq := uint64(3*keys + 1); seq <= 4*keys; seq++ {
		p := Pair{Key: atom.Int(int64(rng.Intn(keys + 20))), Addr: addr.New(1, seq)}
		for _, tr := range []*BTree{built, inserted} {
			if err := tr.Insert(p.Key, p.Addr); err != nil {
				t.Fatal(err)
			}
		}
		live = append(live, p)
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, p := range live[:keys] {
		for _, tr := range []*BTree{built, inserted} {
			if err := tr.Delete(p.Key, p.Addr); err != nil {
				t.Fatalf("Delete %v: %v", p, err)
			}
		}
	}
	sameAsModel(t, live[keys:], keys+20, built, inserted)
}

// TestBuildRejectsAndAppends covers Build's other cases: a duplicate pair or
// an oversized key fails it, and a tree that holds entries takes the pairs
// as Inserts.
func TestBuildRejectsAndAppends(t *testing.T) {
	dup := []Pair{{atom.Int(1), addr.New(1, 1)}, {atom.Int(1), addr.New(1, 1)}}
	if err := newTree(t, device.B1K).Build(dup); !errors.Is(err, ErrDupEntry) {
		t.Fatalf("Build of a duplicate pair = %v, want ErrDupEntry", err)
	}
	big := []Pair{{atom.Str(string(make([]byte, 600))), addr.New(1, 1)}}
	if err := newTree(t, device.B1K).Build(big); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("Build of an oversized key = %v, want ErrKeyTooLarge", err)
	}
	tr := newTree(t, device.B1K)
	if err := tr.Build(nil); err != nil || tr.Len() != 0 {
		t.Fatalf("Build of nothing: %v, Len %d", err, tr.Len())
	}
	if err := tr.Insert(atom.Int(5), addr.New(1, 9)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Build([]Pair{{atom.Int(7), addr.New(1, 2)}, {atom.Int(3), addr.New(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, tr, nil, nil, false); len(got) != 3 || got[0].Addr != addr.New(1, 1) || got[2].Addr != addr.New(1, 2) {
		t.Fatalf("after Build on a non-empty tree: %v", got)
	}
}
