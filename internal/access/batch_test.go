package access

import (
	"errors"
	"strings"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/race"
)

// batchSystem builds an in-memory system with a simple wide/narrow type and
// n atoms, returning their addresses.
func batchSystem(t *testing.T, n int) (*System, []addr.LogicalAddr) {
	t.Helper()
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	at, err := catalog.NewAtomType("item", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "n", Type: catalog.SpecInt()},
		{Name: "text", Type: catalog.SpecString()},
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
		text := "t"
		if i%10 == 0 {
			// Every tenth record spills to a page sequence.
			text = strings.Repeat("x", 6000)
		}
		a, err := s.Insert("item", map[string]atom.Value{
			"n":    atom.Int(int64(i)),
			"text": atom.Str(text),
		})
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		addrs[i] = a
	}
	return s, addrs
}

func TestGetBatchMatchesGet(t *testing.T) {
	s, addrs := batchSystem(t, 100)
	batch, err := s.GetBatch(addrs, nil)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	if len(batch) != len(addrs) {
		t.Fatalf("batch = %d atoms, want %d", len(batch), len(addrs))
	}
	for i, a := range addrs {
		single, err := s.Get(a, nil)
		if err != nil {
			t.Fatalf("Get %v: %v", a, err)
		}
		if batch[i].Addr != a {
			t.Fatalf("atom %d: addr %v, want %v (alignment)", i, batch[i].Addr, a)
		}
		for j := range single.Values {
			if atom.Compare(batch[i].Values[j], single.Values[j]) != 0 {
				t.Fatalf("atom %d attr %d: batch %v != single %v", i, j, batch[i].Values[j], single.Values[j])
			}
		}
	}
}

func TestGetBatchSavesPageFixes(t *testing.T) {
	s, addrs := batchSystem(t, 64)
	// Disable the atom cache: this test compares page fixes of the
	// batched vs. single-read paths, and warm cache hits would serve the
	// single reads without fixing anything.
	s.SetAtomCacheSize(0)
	// Drop the spilled entries so every read is one inline record.
	var inline []addr.LogicalAddr
	for i, a := range addrs {
		if i%10 != 0 {
			inline = append(inline, a)
		}
	}
	s.Pool().ResetStats()
	if _, err := s.GetBatch(inline, nil); err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	batchFixes := s.Pool().Stats()

	s.Pool().ResetStats()
	for _, a := range inline {
		if _, err := s.Get(a, nil); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	singleFixes := s.Pool().Stats()

	if got, want := batchFixes.Hits+batchFixes.Misses, singleFixes.Hits+singleFixes.Misses; got >= want {
		t.Fatalf("batch fixed %d pages, singles fixed %d — batching saved nothing", got, want)
	}
}

// TestGetBatchInterleavedTypes reads a batch whose addresses alternate
// between two atom types — two primary containers — with the atom cache
// cold, warm for every other address, and off: results stay aligned with the
// input whatever mix of hits and per-type reads serves them.
func TestGetBatchInterleavedTypes(t *testing.T) {
	s, items := batchSystem(t, 12)
	tag, err := catalog.NewAtomType("tag", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "n", Type: catalog.SpecInt()},
	}, nil)
	if err != nil {
		t.Fatalf("NewAtomType: %v", err)
	}
	if err := s.Schema().AddAtomType(tag); err != nil {
		t.Fatalf("AddAtomType: %v", err)
	}
	var mixed []addr.LogicalAddr
	for i, a := range items {
		b, err := s.Insert("tag", map[string]atom.Value{"n": atom.Int(int64(100 + i))})
		if err != nil {
			t.Fatalf("Insert tag: %v", err)
		}
		mixed = append(mixed, b, a)
	}
	check := func(when string) {
		t.Helper()
		batch, err := s.GetBatch(mixed, nil)
		if err != nil {
			t.Fatalf("%s: GetBatch: %v", when, err)
		}
		for i, at := range batch {
			want := int64(i / 2)
			if i%2 == 0 {
				want += 100
			}
			if v, _ := at.Value("n"); at.Addr != mixed[i] || v.I != want {
				t.Fatalf("%s: batch[%d] = %v n=%d, want %v n=%d", when, i, at.Addr, v.I, mixed[i], want)
			}
		}
	}
	s.SetAtomCacheSize(0)
	check("cache off")
	s.SetAtomCacheSize(DefaultAtomCacheAtoms)
	check("cache cold")
	for i := 0; i < len(mixed); i += 3 {
		s.cacheInvalidate(mixed[i])
	}
	check("cache partly warm")
}

func TestGetBatchUnknownAddr(t *testing.T) {
	s, addrs := batchSystem(t, 4)
	if err := s.Delete(addrs[2]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.GetBatch(addrs, nil); !errors.Is(err, ErrNoAtom) {
		t.Fatalf("GetBatch with dead addr = %v, want ErrNoAtom", err)
	}
	if _, err := s.GetBatch(nil, nil); err != nil {
		t.Fatalf("empty GetBatch: %v", err)
	}
}

func TestGetBatchProjection(t *testing.T) {
	s, addrs := batchSystem(t, 8)
	batch, err := s.GetBatch(addrs, []string{"n"})
	if err != nil {
		t.Fatalf("GetBatch projected: %v", err)
	}
	for i, at := range batch {
		v, ok := at.Value("n")
		if !ok || v.I != int64(i) {
			t.Fatalf("atom %d: n = %v", i, v)
		}
		if txt, _ := at.Value("text"); !txt.IsNull() {
			t.Fatalf("atom %d: unprojected attr materialized: %v", i, txt)
		}
	}
}

// TestConfigShardRounding checks the shard count rounds to a power of two
// in the config itself, so the per-shard budget divides by the real stripe
// count and the pool's aggregate capacity never exceeds BufferBytes.
func TestConfigShardRounding(t *testing.T) {
	c := Config{BufferShards: 6}
	if err := c.fill(); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if c.BufferShards != 8 {
		t.Fatalf("BufferShards = %d, want 8", c.BufferShards)
	}
	s, err := Open(Config{BufferShards: 6})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if got := s.Pool().Shards(); got != 8 {
		t.Fatalf("pool shards = %d, want 8", got)
	}
}

// TestShardShrinkKeepsStructurePagesServable reproduces a config that works
// unsharded and must keep working sharded: a small budget with small primary
// pages still has to serve the fixed-4K structure segments (B*-trees), so
// fill() must shrink the stripe count accordingly.
func TestShardShrinkKeepsStructurePagesServable(t *testing.T) {
	s, err := Open(Config{PageSize: 512, BufferBytes: 64 << 10, BufferShards: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if got := s.Pool().Shards(); got != 1 {
		t.Fatalf("pool shards = %d, want 1 (budget too small to stripe)", got)
	}
	at, err := catalog.NewAtomType("item", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "n", Type: catalog.SpecInt()},
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
	if _, err := s.Insert("item", map[string]atom.Value{"n": atom.Int(7)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// The access path's B*-tree lives on a 4K segment; fixing its pages
	// must succeed under this budget.
	if err := s.CreateAccessPath(&catalog.AccessPathDef{
		Name: "byn", AtomType: "item", Attrs: []string{"n"}, Method: "BTREE",
	}); err != nil {
		t.Fatalf("CreateAccessPath under sharded small budget: %v", err)
	}
}

func TestScanAddrsAfterPaging(t *testing.T) {
	s, addrs := batchSystem(t, 25)
	var got []addr.LogicalAddr
	after := uint64(0)
	for {
		chunk, err := s.ScanAddrsAfter("item", after, 7)
		if err != nil {
			t.Fatalf("ScanAddrsAfter: %v", err)
		}
		if len(chunk) == 0 {
			break
		}
		got = append(got, chunk...)
		after = chunk[len(chunk)-1].Seq()
	}
	if len(got) != len(addrs) {
		t.Fatalf("paged scan saw %d addrs, want %d", len(got), len(addrs))
	}
	for i := range got {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d: %v != %v (order)", i, got[i], addrs[i])
		}
	}
	// Deleting mid-page entries must not disturb the paging.
	for i := 10; i < 15; i++ {
		if err := s.Delete(addrs[i]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	chunk, err := s.ScanAddrsAfter("item", addrs[9].Seq(), 7)
	if err != nil {
		t.Fatalf("ScanAddrsAfter: %v", err)
	}
	if len(chunk) == 0 || chunk[0] != addrs[15] {
		t.Fatalf("paging over deletions: first = %v, want %v", chunk, addrs[15])
	}
}

// TestDecodeHistogramTimesMisses: access_decode_ns times record fetch and
// image check on cache misses, so a batch the atom cache serves whole adds no
// sample and a batch that missed adds exactly one.
func TestDecodeHistogramTimesMisses(t *testing.T) {
	s, addrs := nodeSystem(t, 16)
	samples := func() uint64 { return s.decodeNs.Snapshot().Count }
	s.SetAtomCacheSize(0)
	s.SetAtomCacheSize(1 << 20)
	before := samples()
	if _, err := s.GetBatch(addrs, nil); err != nil {
		t.Fatalf("cold GetBatch: %v", err)
	}
	if got := samples() - before; got != 1 {
		t.Fatalf("cold GetBatch added %d samples, want 1", got)
	}
	before = samples()
	if _, err := s.GetBatch(addrs, nil); err != nil {
		t.Fatalf("warm GetBatch: %v", err)
	}
	if _, err := s.Get(addrs[0], nil); err != nil {
		t.Fatalf("warm Get: %v", err)
	}
	if got := samples() - before; got != 0 {
		t.Fatalf("warm reads added %d samples, want 0", got)
	}
}

// TestAllocsSingleRead: a one-atom read is a batch of one through fill and
// must cost no more than the record copy and the decode, so the batch scratch
// has to stay on the stack; an update's pre-image read is one such read.
func TestAllocsSingleRead(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, addrs := nodeSystem(t, 64)
	get := func() {
		if _, err := s.Get(addrs[7], nil); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	changes := map[string]atom.Value{"n": atom.Int(0)}
	k := int64(0)
	update := func() {
		k++
		changes["n"] = atom.Int(k)
		if err := s.Update(addrs[9], changes); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	for _, c := range []struct {
		name   string
		cache  int
		fn     func()
		budget float64
	}{
		{"warm Get", 1 << 20, get, 2},
		{"Get, cache off", 0, get, 3},
		{"Update, cache on", 1 << 20, update, 13},
		{"Update, cache off", 0, update, 12},
	} {
		s.SetAtomCacheSize(c.cache)
		c.fn()
		if got := testing.AllocsPerRun(100, c.fn); got > c.budget {
			t.Errorf("%s: %.0f allocs, budget %.0f", c.name, got, c.budget)
		}
	}
}
