package access

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
)

// nodeSystem builds an in-memory system with a self-referencing node type
// (for Connect/Disconnect coverage) and n atoms.
func nodeSystem(t *testing.T, n int) (*System, []addr.LogicalAddr) {
	t.Helper()
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	at, err := catalog.NewAtomType("node", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "n", Type: catalog.SpecInt()},
		{Name: "label", Type: catalog.SpecString()},
		{Name: "next", Type: catalog.SpecSetOf(catalog.SpecRef("node", "prev"), 0, -1)},
		{Name: "prev", Type: catalog.SpecSetOf(catalog.SpecRef("node", "next"), 0, -1)},
	}, nil)
	if err != nil {
		t.Fatalf("NewAtomType: %v", err)
	}
	if err := s.Schema().AddAtomType(at); err != nil {
		t.Fatalf("AddAtomType: %v", err)
	}
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	addrs := make([]addr.LogicalAddr, n)
	for i := range addrs {
		a, err := s.Insert("node", map[string]atom.Value{
			"n":     atom.Int(int64(i)),
			"label": atom.Str("node"),
		})
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		addrs[i] = a
	}
	return s, addrs
}

// TestAtomCacheHitSkipsBuffer proves the architectural point of the cache:
// a warm repeated checkout costs neither a page fix nor a pin.
func TestAtomCacheHitSkipsBuffer(t *testing.T) {
	s, addrs := nodeSystem(t, 32)

	// Warm the cache.
	if _, err := s.GetBatch(addrs, nil); err != nil {
		t.Fatalf("warm GetBatch: %v", err)
	}
	warm := s.AtomCacheStats()
	s.Pool().ResetStats()

	for _, a := range addrs {
		if _, err := s.Get(a, nil); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	if _, err := s.GetBatch(addrs, nil); err != nil {
		t.Fatalf("GetBatch: %v", err)
	}

	ps := s.Pool().Stats()
	if fixes := ps.Hits + ps.Misses; fixes != 0 {
		t.Fatalf("warm reads fixed %d pages, want 0", fixes)
	}
	if pinned := s.Pool().Pinned(); pinned != 0 {
		t.Fatalf("%d pages still pinned after cache-served reads", pinned)
	}
	st := s.AtomCacheStats()
	if got := st.Hits - warm.Hits; got != uint64(2*len(addrs)) {
		t.Fatalf("cache hits = %d, want %d", got, 2*len(addrs))
	}
	if st.Misses != warm.Misses {
		t.Fatalf("warm reads missed the cache: %d -> %d", warm.Misses, st.Misses)
	}
}

// TestAtomCacheProjectedRead checks that projected Gets are served from a
// cached full-width atom and still return the projection contract (NULL for
// unselected attributes).
func TestAtomCacheProjectedRead(t *testing.T) {
	s, addrs := nodeSystem(t, 4)
	if _, err := s.Get(addrs[0], nil); err != nil {
		t.Fatalf("warm Get: %v", err)
	}
	at, err := s.Get(addrs[0], []string{"n"})
	if err != nil {
		t.Fatalf("projected Get: %v", err)
	}
	if v, _ := at.Value("n"); v.I != 0 {
		t.Fatalf("n = %v, want 0", v)
	}
	if v, _ := at.Value("label"); !v.IsNull() {
		t.Fatalf("unselected label = %v, want NULL", v)
	}
}

// TestAtomCacheInvalidation proves every mutation path drops the cached
// decode: Update, Connect, Disconnect (through their partner updates too)
// and Delete.
func TestAtomCacheInvalidation(t *testing.T) {
	s, addrs := nodeSystem(t, 8)
	a, b := addrs[0], addrs[1]

	get := func(x addr.LogicalAddr) *Atom {
		t.Helper()
		at, err := s.Get(x, nil)
		if err != nil {
			t.Fatalf("Get %v: %v", x, err)
		}
		return at
	}

	get(a)
	if err := s.Update(a, map[string]atom.Value{"n": atom.Int(100)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if v, _ := get(a).Value("n"); v.I != 100 {
		t.Fatalf("after Update: n = %v, want 100", v)
	}

	// Connect maintains a's ref attr and b's back-reference; both cached
	// decodes must be refreshed.
	get(a)
	get(b)
	if err := s.Connect(a, "next", b); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if v, _ := get(a).Value("next"); !v.ContainsRef(b) {
		t.Fatalf("after Connect: a.next = %v, want to contain %v", v, b)
	}
	if v, _ := get(b).Value("prev"); !v.ContainsRef(a) {
		t.Fatalf("after Connect: b.prev = %v, want to contain %v", v, a)
	}

	if err := s.Disconnect(a, "next", b); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if v, _ := get(a).Value("next"); v.ContainsRef(b) {
		t.Fatalf("after Disconnect: a.next still holds %v", b)
	}
	if v, _ := get(b).Value("prev"); v.ContainsRef(a) {
		t.Fatalf("after Disconnect: b.prev still holds %v", a)
	}

	get(a)
	if err := s.Delete(a); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(a, nil); !errors.Is(err, ErrNoAtom) {
		t.Fatalf("Get after Delete = %v, want ErrNoAtom", err)
	}

	if st := s.AtomCacheStats(); st.Invalidations == 0 {
		t.Fatalf("no invalidations counted: %+v", st)
	}
}

// TestAtomCacheDisableAndResize covers the differential knob: disabling
// drops all entries and bypasses the cache, re-enabling starts cold.
func TestAtomCacheDisableAndResize(t *testing.T) {
	s, addrs := nodeSystem(t, 8)
	if _, err := s.GetBatch(addrs, nil); err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	preDisable := s.AtomCacheStats()
	s.SetAtomCacheSize(0)
	if st := s.AtomCacheStats(); st.Budget != 0 || st.Atoms != 0 {
		t.Fatalf("disabled cache reports %+v", st)
	}
	before := s.Pool().Stats()
	if _, err := s.Get(addrs[0], nil); err != nil {
		t.Fatalf("Get with cache disabled: %v", err)
	}
	after := s.Pool().Stats()
	if after.Hits+after.Misses == before.Hits+before.Misses {
		t.Fatalf("disabled cache still served the read without a page fix")
	}
	s.SetAtomCacheSize(64)
	if _, err := s.Get(addrs[0], nil); err != nil {
		t.Fatalf("Get after re-enable: %v", err)
	}
	if st := s.AtomCacheStats(); st.Atoms != 1 || st.Budget != 64 {
		t.Fatalf("re-enabled cache reports %+v, want 1 atom / budget 64", st)
	}
	// Counters live on the System: cumulative across the disable cycle.
	if st := s.AtomCacheStats(); st.Misses < preDisable.Misses || st.Misses == 0 {
		t.Fatalf("counters reset across disable/re-enable: %+v -> %+v", preDisable, st)
	}
}

// TestAtomCacheEviction bounds the cache by its budget: 16 atoms' worth of
// bytes, charged by image length, so it holds more of these narrow atoms than
// 16 but never all 64.
func TestAtomCacheEviction(t *testing.T) {
	s, addrs := nodeSystem(t, 64)
	s.SetAtomCacheSize(16)
	for _, a := range addrs {
		if _, err := s.Get(a, nil); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	st := s.AtomCacheStats()
	if st.Bytes > 16*acAtomBytes || st.Atoms >= len(addrs) {
		t.Fatalf("cache holds %d atoms in %d bytes, budget %d bytes", st.Atoms, st.Bytes, 16*acAtomBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions counted over budget: %+v", st)
	}
}

// TestCorruptRecordNeverCached: a primary record that does not hold a valid
// image — a torn page, a foreign file — fails every read path with the error
// the decoder gives, stays out of the cache, and spares its neighbours.
func TestCorruptRecordNeverCached(t *testing.T) {
	s, addrs := nodeSystem(t, 8)
	bad := addrs[3]
	at, err := s.Get(bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	torn := atom.EncodeAtom(at.Values)
	torn = torn[:len(torn)-3]
	_, want := atom.DecodeAtomOwned(append([]byte(nil), torn...))
	if want == nil {
		t.Fatal("the torn image decodes")
	}
	ref, _ := s.dir.LookupStruct(bad, 0)
	prim, err := s.primary(at.Type)
	if err != nil {
		t.Fatal(err)
	}
	if rid, err := prim.Update(ref.Where, torn); err != nil || rid != ref.Where {
		t.Fatalf("overwriting the record: %v, %v", rid, err)
	}
	for _, cached := range []bool{true, false} {
		s.SetAtomCacheSize(-1)
		if cached {
			s.SetAtomCacheSize(64)
		}
		sn := s.OpenSnapshot()
		for round := 0; round < 2; round++ { // the second round would hit a cached image
			if _, err := s.Get(bad, nil); err == nil || err.Error() != want.Error() {
				t.Fatalf("cache %v: Get: %v, want %v", cached, err, want)
			}
			if _, err := sn.Get(bad); err == nil || err.Error() != want.Error() {
				t.Fatalf("cache %v: Snapshot.Get: %v, want %v", cached, err, want)
			}
			if _, err := sn.GetBatch(addrs); err == nil || err.Error() != want.Error() {
				t.Fatalf("cache %v: Snapshot.GetBatch: %v, want %v", cached, err, want)
			}
			if _, err := s.GetBatch(addrs, nil); err == nil || err.Error() != want.Error() {
				t.Fatalf("cache %v: GetBatch: %v, want %v", cached, err, want)
			}
			if err := s.AtomTypeScan("node", nil, nil, func(*Atom) bool { return true }); err == nil || err.Error() != want.Error() {
				t.Fatalf("cache %v: AtomTypeScan: %v, want %v", cached, err, want)
			}
		}
		sn.Close()
		if c := s.cache(); c != nil {
			if _, ok := c.shardOf(bad).entries[bad]; ok {
				t.Fatal("the corrupt record has a cache entry")
			}
		}
		if _, err := s.GetBatch(addrs[4:], nil); err != nil {
			t.Fatalf("cache %v: the neighbours: %v", cached, err)
		}
	}
}

// TestAtomCacheScanResistance pins the insertion rule: a cyclic scan of twice
// what the budget holds — the full-design checkout that strict LRU answers
// with zero hits, every atom evicted just before its next use — keeps about
// half its reads in the cache, and uniform random access over the same set
// still hits in proportion to the share that fits.
func TestAtomCacheScanResistance(t *testing.T) {
	s, addrs := nodeSystem(t, 1024)
	s.SetAtomCacheSize(128)
	if _, err := s.GetBatch(addrs, nil); err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	holds := s.AtomCacheStats().Atoms
	if holds == 0 || 2*holds > len(addrs) {
		t.Fatalf("cache holds %d of %d atoms; the test needs a set of twice that", holds, len(addrs))
	}
	set := addrs[:2*holds]
	ratio := func(rounds int, next func(i int) addr.LogicalAddr) float64 {
		s.SetAtomCacheSize(0)
		s.SetAtomCacheSize(128) // start cold
		var before AtomCacheStats
		for r := 0; r < rounds; r++ {
			if r == 2 {
				before = s.AtomCacheStats() // the first rounds fill the cache
			}
			for i := range set {
				if _, err := s.Get(next(i), nil); err != nil {
					t.Fatalf("Get: %v", err)
				}
			}
		}
		after := s.AtomCacheStats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		return float64(hits) / float64(hits+misses)
	}
	if r := ratio(8, func(i int) addr.LogicalAddr { return set[i] }); r < 0.4 {
		t.Fatalf("cyclic scan of 2x capacity: hit ratio %.2f, want >= 0.4", r)
	}
	rng := rand.New(rand.NewSource(1))
	if r := ratio(8, func(int) addr.LogicalAddr { return set[rng.Intn(len(set))] }); r < 0.4 || r > 0.6 {
		t.Fatalf("uniform random access over 2x capacity: hit ratio %.2f, want about 0.5", r)
	}
	if st := s.AtomCacheStats(); st.Atoms > holds {
		t.Fatalf("cache holds %d atoms, more than the %d its budget admitted before", st.Atoms, holds)
	}
}

// TestAtomCacheConcurrentInvalidation is the -race suite hammering readers
// against writers: update values only ever grow, so any reader observing a
// value smaller than the writer's last committed one has hit a stale cache
// entry.
func TestAtomCacheConcurrentInvalidation(t *testing.T) {
	s, addrs := nodeSystem(t, 4)
	hot := addrs[:4]

	const rounds = 300
	var committed [4]atomic.Int64
	var wg sync.WaitGroup
	var raceErr atomic.Value

	// Writer: bump n monotonically across the hot set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); v <= rounds; v++ {
			i := int(v) % len(hot)
			if err := s.Update(hot[i], map[string]atom.Value{"n": atom.Int(v)}); err != nil {
				raceErr.Store(err)
				return
			}
			committed[i].Store(v)
		}
	}()

	// Readers: single and batched gets must never travel back in time past
	// a committed update.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			nIdx := 1 // attribute index of n
			for k := 0; k < rounds; k++ {
				i := (k + r) % len(hot)
				floor := committed[i].Load()
				at, err := s.Get(hot[i], nil)
				if err != nil {
					raceErr.Store(err)
					return
				}
				if got := at.Values[nIdx].I; got < floor {
					raceErr.Store(errors.New("stale single read"))
					return
				}
				floors := make([]int64, len(hot))
				for j := range hot {
					floors[j] = committed[j].Load()
				}
				batch, err := s.GetBatch(hot, nil)
				if err != nil {
					raceErr.Store(err)
					return
				}
				for j, at := range batch {
					if got := at.Values[nIdx].I; got < floors[j] {
						raceErr.Store(errors.New("stale batched read"))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if err := raceErr.Load(); err != nil {
		t.Fatalf("concurrent invalidation: %v", err)
	}

	// Quiesced: every address must read back its final committed value.
	for i, a := range hot {
		at, err := s.Get(a, nil)
		if err != nil {
			t.Fatalf("final Get: %v", err)
		}
		if got, want := at.Values[1].I, committed[i].Load(); got != want {
			t.Fatalf("atom %d: n = %d, want %d", i, got, want)
		}
	}
}

// TestAtomCacheConcurrentConnectDelete exercises reference maintenance and
// deletes under concurrent batched readers (the race detector is the judge;
// readers only require that live atoms resolve consistently).
func TestAtomCacheConcurrentConnectDelete(t *testing.T) {
	s, addrs := nodeSystem(t, 32)
	stable := addrs[:16] // never deleted
	var wg sync.WaitGroup
	var firstErr atomic.Value

	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 100; k++ {
			a, b := stable[k%16], stable[(k+7)%16]
			if a == b {
				continue
			}
			if err := s.Connect(a, "next", b); err != nil {
				firstErr.Store(err)
				return
			}
			if err := s.Disconnect(a, "next", b); err != nil {
				firstErr.Store(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, a := range addrs[16:] {
			if err := s.Delete(a); err != nil {
				firstErr.Store(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if _, err := s.GetBatch(stable, nil); err != nil {
					firstErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("concurrent connect/delete: %v", err)
	}
}
