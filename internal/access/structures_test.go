package access

import (
	"encoding/binary"
	"slices"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/storage/pageseq"
)

func insertDocs(t testing.TB, s *System, n int) []addr.LogicalAddr {
	t.Helper()
	var out []addr.LogicalAddr
	for i := 0; i < n; i++ {
		d, err := s.Insert("doc", map[string]atom.Value{
			"title": atom.Str("doc"),
			"pages": atom.Int(int64((i * 37) % 100)), // scrambled
			"score": atom.Real(float64(i)),
		})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		out = append(out, d)
	}
	return out
}

func TestSortOrderScan(t *testing.T) {
	s := newSystem(t)
	insertDocs(t, s, 50)
	if err := s.CreateSortOrder(&catalog.SortOrderDef{
		Name: "doc_by_pages", AtomType: "doc", Attrs: []string{"pages"},
	}); err != nil {
		t.Fatalf("CreateSortOrder: %v", err)
	}
	// New atoms join the sort order.
	insertDocs(t, s, 10)

	var last int64 = -1
	n := 0
	err := s.SortScan("doc_by_pages", nil, nil, nil, func(at *Atom) bool {
		v, _ := at.Value("pages")
		if v.I < last {
			t.Fatalf("sort scan out of order: %d after %d", v.I, last)
		}
		last = v.I
		n++
		return true
	})
	if err != nil {
		t.Fatalf("SortScan: %v", err)
	}
	if n != 60 {
		t.Fatalf("sort scan visited %d, want 60", n)
	}

	// Start/stop condition on the sort key.
	n = 0
	err = s.SortScan("doc_by_pages", nil,
		[]atom.Value{atom.Int(20)}, []atom.Value{atom.Int(40)},
		func(at *Atom) bool {
			v, _ := at.Value("pages")
			if v.I < 20 || v.I > 40 {
				t.Fatalf("start/stop violated: %d", v.I)
			}
			n++
			return true
		})
	if err != nil || n == 0 {
		t.Fatalf("bounded sort scan: n=%d err=%v", n, err)
	}

	// Descending sort order.
	if err := s.CreateSortOrder(&catalog.SortOrderDef{
		Name: "doc_by_pages_desc", AtomType: "doc", Attrs: []string{"pages"}, Desc: []bool{true},
	}); err != nil {
		t.Fatalf("CreateSortOrder desc: %v", err)
	}
	last = 1 << 60
	err = s.SortScan("doc_by_pages_desc", nil, nil, nil, func(at *Atom) bool {
		v, _ := at.Value("pages")
		if v.I > last {
			t.Fatalf("desc sort scan out of order")
		}
		last = v.I
		return true
	})
	if err != nil {
		t.Fatalf("desc SortScan: %v", err)
	}

	// Fallback explicit sort agrees with the sort order.
	var a1, a2 []int64
	s.SortScan("doc_by_pages", nil, nil, nil, func(at *Atom) bool {
		v, _ := at.Value("pages")
		a1 = append(a1, v.I)
		return true
	})
	s.SortedTypeScan("doc", []string{"pages"}, false, nil, func(at *Atom) bool {
		v, _ := at.Value("pages")
		a2 = append(a2, v.I)
		return true
	})
	if len(a1) != len(a2) {
		t.Fatalf("sort order and explicit sort disagree on count: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("sort order and explicit sort disagree at %d: %d vs %d", i, a1[i], a2[i])
		}
	}
}

func TestDeferredUpdatePropagation(t *testing.T) {
	s := newSystem(t)
	docs := insertDocs(t, s, 10)
	if err := s.CreateSortOrder(&catalog.SortOrderDef{
		Name: "so", AtomType: "doc", Attrs: []string{"pages"},
	}); err != nil {
		t.Fatalf("CreateSortOrder: %v", err)
	}
	if err := s.CreatePartition(&catalog.PartitionDef{
		Name: "part", AtomType: "doc", Attrs: []string{"title", "pages"},
	}); err != nil {
		t.Fatalf("CreatePartition: %v", err)
	}
	if s.PendingDeferred() != 0 {
		t.Fatalf("fresh structures have %d pending tasks", s.PendingDeferred())
	}

	// A title update touches the partition (title ∈ partition) and the
	// sort-order record (full copy), but not the sort key.
	if err := s.Update(docs[0], map[string]atom.Value{"title": atom.Str("updated")}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if s.PendingDeferred() == 0 {
		t.Fatal("update queued no deferred propagation")
	}
	// The stale partition must NOT serve reads: a covered projection read
	// falls back to the primary and sees the new value.
	at, err := s.Get(docs[0], []string{"title"})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v, _ := at.Value("title"); v.S != "updated" {
		t.Fatalf("projected read returned stale value %v", v)
	}

	// Propagate and verify validity is restored.
	if err := s.PropagateDeferred(); err != nil {
		t.Fatalf("PropagateDeferred: %v", err)
	}
	if s.PendingDeferred() != 0 {
		t.Fatal("queue not drained")
	}
	refs, _ := s.Directory().Lookup(docs[0])
	for _, r := range refs {
		if !r.Valid {
			t.Fatalf("ref %+v still invalid after propagation", r)
		}
	}
	// Partition now serves the fresh value again.
	at, _ = s.Get(docs[0], []string{"title"})
	if v, _ := at.Value("title"); v.S != "updated" {
		t.Fatalf("post-propagation read = %v", v)
	}

	// A score update (not in partition attrs) leaves the partition valid.
	before := s.PendingDeferred()
	if err := s.Update(docs[1], map[string]atom.Value{"score": atom.Real(99)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	refs, _ = s.Directory().Lookup(docs[1])
	for _, r := range refs {
		if r.Kind == addr.KindPartition && !r.Valid {
			t.Fatal("partition invalidated by irrelevant attribute change")
		}
	}
	_ = before
}

func TestSortKeyUpdateRepositionsImmediately(t *testing.T) {
	s := newSystem(t)
	docs := insertDocs(t, s, 5)
	if err := s.CreateSortOrder(&catalog.SortOrderDef{
		Name: "so", AtomType: "doc", Attrs: []string{"pages"},
	}); err != nil {
		t.Fatalf("CreateSortOrder: %v", err)
	}
	// Move docs[0] to the very top of the order. Even though its record
	// copy is refreshed lazily, the scan must already deliver the new
	// position AND the new value (stale copy falls back to primary).
	if err := s.Update(docs[0], map[string]atom.Value{"pages": atom.Int(100000)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	var lastAddr addr.LogicalAddr
	var lastVal int64
	err := s.SortScan("so", nil, nil, nil, func(at *Atom) bool {
		lastAddr = at.Addr
		v, _ := at.Value("pages")
		lastVal = v.I
		return true
	})
	if err != nil {
		t.Fatalf("SortScan: %v", err)
	}
	if lastAddr != docs[0] || lastVal != 100000 {
		t.Fatalf("sort scan tail = %v/%d, want %v/100000", lastAddr, lastVal, docs[0])
	}
}

func TestPartitionCoveredRead(t *testing.T) {
	s := newSystem(t)
	docs := insertDocs(t, s, 5)
	if err := s.CreatePartition(&catalog.PartitionDef{
		Name: "titles", AtomType: "doc", Attrs: []string{"title"},
	}); err != nil {
		t.Fatalf("CreatePartition: %v", err)
	}
	// Covered read comes from the partition; verify it returns the value.
	at, err := s.Get(docs[2], []string{"title"})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v, _ := at.Value("title"); v.S != "doc" {
		t.Fatalf("partition read = %v", v)
	}
	// Uncovered projection (title+score) must come from the primary.
	at, err = s.Get(docs[2], []string{"title", "score"})
	if err != nil {
		t.Fatalf("Get uncovered: %v", err)
	}
	if v, _ := at.Value("score"); v.F != 2 {
		t.Fatalf("uncovered read = %v", v)
	}
}

// clusterSystem builds a schema with a 1:n parent/child association and a
// cluster over it.
func clusterSystem(t testing.TB) (*System, []addr.LogicalAddr) {
	t.Helper()
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	parent, err := catalog.NewAtomType("parent", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "name", Type: catalog.SpecString()},
		{Name: "kids", Type: catalog.SpecSetOf(catalog.SpecRef("kid", "parent"), 0, catalog.VarCard)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	kid, err := catalog.NewAtomType("kid", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "n", Type: catalog.SpecInt()},
		{Name: "parent", Type: catalog.SpecRef("parent", "kids")},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().AddAtomType(parent); err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().AddAtomType(kid); err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}

	// Three parents with 4 kids each.
	var parents []addr.LogicalAddr
	for p := 0; p < 3; p++ {
		pa, err := s.Insert("parent", map[string]atom.Value{"name": atom.Str("p")})
		if err != nil {
			t.Fatal(err)
		}
		parents = append(parents, pa)
		for k := 0; k < 4; k++ {
			if _, err := s.Insert("kid", map[string]atom.Value{
				"n":      atom.Int(int64(p*10 + k)),
				"parent": atom.Ref(pa),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, parents
}

func clusterDef(name string) *catalog.ClusterDef {
	return &catalog.ClusterDef{Name: name, Molecule: &catalog.MoleculeType{
		Root: &catalog.MolNode{
			AtomType: "parent",
			Children: []*catalog.MolNode{{AtomType: "kid", Via: "kids"}},
		},
	}}
}

func TestClusterLifecycle(t *testing.T) {
	s, parents := clusterSystem(t)
	if err := s.CreateCluster(clusterDef("pc")); err != nil {
		t.Fatalf("CreateCluster: %v", err)
	}
	roots, err := s.ClusterRoots("pc")
	if err != nil || len(roots) != 3 {
		t.Fatalf("ClusterRoots = %v, %v", roots, err)
	}

	// Cluster-type scan sees every occurrence with root + 4 kids.
	n := 0
	err = s.ClusterTypeScan("pc", nil, func(occ *ClusterOccurrence) bool {
		n++
		if kids := len(occ.Records) - 1; kids != 4 { // the parent, then its kids
			t.Fatalf("occurrence %v has %d kids", occ.Root, kids)
		}
		if _, ok := occ.Record(occ.Root); !ok {
			t.Fatal("occurrence missing root atom")
		}
		return true
	})
	if err != nil || n != 3 {
		t.Fatalf("ClusterTypeScan = %d, %v", n, err)
	}

	// Cluster scan over one occurrence with an SSA.
	n = 0
	err = s.ClusterScan("pc", parents[1], "kid", SSA{{Attr: "n", Op: OpGE, Value: atom.Int(12)}}, func(at *Atom) bool {
		n++
		return true
	})
	if err != nil || n != 2 {
		t.Fatalf("ClusterScan = %d, %v (want kids 12,13)", n, err)
	}

	// Direct single-atom read through the relative addressing table.
	kids, _ := s.ScanAddrs("kid")
	at, err := s.ClusterReadAtom("pc", kids[0])
	if err != nil {
		t.Fatalf("ClusterReadAtom: %v", err)
	}
	if v, _ := at.Value("n"); v.I != 0 {
		t.Fatalf("ClusterReadAtom n = %v", v)
	}

	// Updating a member invalidates the occurrence; the next scan
	// transparently rebuilds and sees the new value.
	if err := s.Update(kids[0], map[string]atom.Value{"n": atom.Int(777)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	found := false
	err = s.ClusterScan("pc", parents[0], "kid", nil, func(at *Atom) bool {
		if v, _ := at.Value("n"); v.I == 777 {
			found = true
		}
		return true
	})
	if err != nil || !found {
		t.Fatalf("cluster scan after member update: found=%v err=%v", found, err)
	}

	// New root atoms get occurrences.
	p4, err := s.Insert("parent", map[string]atom.Value{"name": atom.Str("late")})
	if err != nil {
		t.Fatal(err)
	}
	roots, _ = s.ClusterRoots("pc")
	if len(roots) != 4 {
		t.Fatalf("roots after insert = %d, want 4", len(roots))
	}

	// Deleting a root drops its occurrence.
	if err := s.Delete(p4); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	roots, _ = s.ClusterRoots("pc")
	if len(roots) != 3 {
		t.Fatalf("roots after delete = %d, want 3", len(roots))
	}

	// Deleting a member rebuilds the cluster without it.
	if err := s.Delete(kids[1]); err != nil {
		t.Fatalf("Delete kid: %v", err)
	}
	if err := s.PropagateDeferred(); err != nil {
		t.Fatalf("PropagateDeferred: %v", err)
	}
	n = 0
	s.ClusterScan("pc", parents[0], "kid", nil, func(*Atom) bool { n++; return true })
	if n != 3 {
		t.Fatalf("kids after member delete = %d, want 3", n)
	}

	// Drop the whole cluster type.
	if err := s.DropLDL("pc"); err != nil {
		t.Fatalf("DropLDL: %v", err)
	}
	if s.HasCluster("pc") {
		t.Fatal("cluster survives DropLDL")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()

	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	doc, _ := catalog.NewAtomType("doc", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "title", Type: catalog.SpecString()},
		{Name: "pages", Type: catalog.SpecInt()},
		{Name: "score", Type: catalog.SpecReal()},
		{Name: "authors", Type: catalog.SpecSetOf(catalog.SpecRef("author", "docs"), 0, catalog.VarCard)},
	}, []string{"pages"})
	author, _ := catalog.NewAtomType("author", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "name", Type: catalog.SpecString()},
		{Name: "docs", Type: catalog.SpecSetOf(catalog.SpecRef("doc", "authors"), 0, catalog.VarCard)},
	}, nil)
	if err := s.Schema().AddAtomType(doc); err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().AddAtomType(author); err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}

	au, _ := s.Insert("author", map[string]atom.Value{"name": atom.Str("Sikeler")})
	var docs []addr.LogicalAddr
	for i := 0; i < 20; i++ {
		d, err := s.Insert("doc", map[string]atom.Value{
			"title":   atom.Str("persisted"),
			"pages":   atom.Int(int64(i)),
			"authors": atom.RefSet(au),
		})
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	if err := s.CreateAccessPath(&catalog.AccessPathDef{Name: "ap", AtomType: "doc", Attrs: []string{"pages"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSortOrder(&catalog.SortOrderDef{Name: "so", AtomType: "doc", Attrs: []string{"pages"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(&catalog.PartitionDef{Name: "pt", AtomType: "doc", Attrs: []string{"title"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen and verify everything.
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Count("doc") != 20 || s2.Count("author") != 1 {
		t.Fatalf("counts after reopen: %d docs, %d authors", s2.Count("doc"), s2.Count("author"))
	}
	at, err := s2.Get(docs[7], nil)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if v, _ := at.Value("pages"); v.I != 7 {
		t.Fatalf("pages = %v", v)
	}
	if v, _ := at.Value("authors"); !v.ContainsRef(au) {
		t.Fatal("reference lost across restart")
	}
	found, err := s2.AccessPathSearch("ap", []atom.Value{atom.Int(13)})
	if err != nil || len(found) != 1 || found[0] != docs[13] {
		t.Fatalf("access path after reopen = %v, %v", found, err)
	}
	n := 0
	last := int64(-1)
	if err := s2.SortScan("so", nil, nil, nil, func(at *Atom) bool {
		v, _ := at.Value("pages")
		if v.I < last {
			t.Fatal("sort order corrupted by restart")
		}
		last = v.I
		n++
		return true
	}); err != nil {
		t.Fatalf("SortScan after reopen: %v", err)
	}
	if n != 20 {
		t.Fatalf("sort scan after reopen = %d", n)
	}
	// Partition still serves covered reads.
	at, err = s2.Get(docs[3], []string{"title"})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v, _ := at.Value("title"); v.S != "persisted" {
		t.Fatalf("partition read after reopen = %v", v)
	}
	// Inserts continue without address collisions.
	d, err := s2.Insert("doc", map[string]atom.Value{"pages": atom.Int(999)})
	if err != nil {
		t.Fatalf("Insert after reopen: %v", err)
	}
	for _, old := range docs {
		if d == old {
			t.Fatal("address reuse after restart")
		}
	}
}

func TestClusterPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	parent, _ := catalog.NewAtomType("parent", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "name", Type: catalog.SpecString()},
		{Name: "kids", Type: catalog.SpecSetOf(catalog.SpecRef("kid", "parent"), 0, catalog.VarCard)},
	}, nil)
	kid, _ := catalog.NewAtomType("kid", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "n", Type: catalog.SpecInt()},
		{Name: "parent", Type: catalog.SpecRef("parent", "kids")},
	}, nil)
	s.Schema().AddAtomType(parent)
	s.Schema().AddAtomType(kid)
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}
	pa, _ := s.Insert("parent", map[string]atom.Value{"name": atom.Str("p")})
	for k := 0; k < 3; k++ {
		s.Insert("kid", map[string]atom.Value{"n": atom.Int(int64(k)), "parent": atom.Ref(pa)})
	}
	if err := s.CreateCluster(clusterDef("pc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	n := 0
	err = s2.ClusterTypeScan("pc", nil, func(occ *ClusterOccurrence) bool {
		n++
		if kids := len(occ.Records) - 1; kids != 3 {
			t.Fatalf("reopened occurrence has %d kids", kids)
		}
		return true
	})
	if err != nil || n != 1 {
		t.Fatalf("cluster scan after reopen = %d, %v", n, err)
	}
}

// occurrencePayload builds cluster pc over clusterSystem and returns the
// system, the root of its first occurrence, the sequence holding that
// occurrence and the payload stored there.
func occurrencePayload(t testing.TB) (*System, addr.LogicalAddr, *pageseq.Sequence, []byte) {
	t.Helper()
	s, parents := clusterSystem(t)
	if err := s.CreateCluster(clusterDef("pc")); err != nil {
		t.Fatalf("CreateCluster: %v", err)
	}
	cl, err := s.clusterByName("pc")
	if err != nil {
		t.Fatal(err)
	}
	seq := cl.seqs[parents[0]]
	payload, err := seq.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return s, parents[0], seq, payload
}

// TestClusterTableRejectsBadEntries: a cluster payload whose relative
// address table is cut short or points outside the payload fails the read
// with an error — both the occurrence read and the single-member read —
// instead of slicing out of range.
func TestClusterTableRejectsBadEntries(t *testing.T) {
	s, root, seq, good := occurrencePayload(t)
	n := int(binary.BigEndian.Uint32(good))
	row := func(i int) []byte { return good[4+16*i:] }
	member := func(i int) addr.LogicalAddr { return addr.LogicalAddr(binary.BigEndian.Uint64(row(i))) }
	setRow1 := func(off, n uint32) []byte {
		p := slices.Clone(good)
		binary.BigEndian.PutUint32(p[4+16+8:], off)
		binary.BigEndian.PutUint32(p[4+16+12:], n)
		return p
	}
	for _, c := range []struct {
		name    string
		payload []byte
		slot    int // the member whose single read must fail
	}{
		{"truncated table", good[:4+16], 1},
		{"truncated payload", good[:len(good)-1], n - 1},
		{"entry past the end", setRow1(binary.BigEndian.Uint32(row(1)[8:]), uint32(len(good))), 1},
		{"wrapping off+len", setRow1(0xFFFFFFF0, 0x20), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if ns, err := seq.Rewrite(c.payload); err != nil || ns != seq {
				t.Fatalf("rewrite moved the sequence or failed: %v", err)
			}
			if _, err := s.ClusterOccurrenceOf("pc", root); err == nil {
				t.Error("ClusterOccurrenceOf read it")
			}
			if _, err := s.ClusterReadAtom("pc", member(c.slot)); err == nil {
				t.Errorf("ClusterReadAtom read member %d", c.slot)
			}
		})
	}
	if _, err := seq.Rewrite(good); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.ClusterReadAtom("pc", member(i)); err != nil {
			t.Fatalf("ClusterReadAtom %d after restoring the payload: %v", i, err)
		}
	}
}

// FuzzClusterTable feeds hostile cluster payloads to the relative address
// table parser: it must return an error or rows whose byte ranges lie inside
// the payload, never panic or allocate beyond what the payload backs. The
// seeds are a real occurrence and its truncations; CI runs the target for
// 20 s:
//
//	go test ./internal/access -run '^$' -fuzz FuzzClusterTable -fuzztime 20s
func FuzzClusterTable(f *testing.F) {
	_, _, _, payload := occurrencePayload(f)
	f.Add(payload)
	f.Add(payload[:len(payload)-1])
	f.Add(payload[:4+16])
	f.Fuzz(func(t *testing.T, payload []byte) {
		entries, err := parseClusterTable(payload)
		if err != nil {
			return
		}
		for _, e := range entries {
			_, _ = atom.CheckImage(payload[e.off : e.off+e.len])
		}
	})
}
