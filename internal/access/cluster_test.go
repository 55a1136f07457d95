package access

import (
	"sync"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
)

// typedSystem opens an in-memory system holding the given atom types.
func typedSystem(t *testing.T, types ...*catalog.AtomType) *System {
	t.Helper()
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, at := range types {
		if err := s.Schema().AddAtomType(at); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustType(t *testing.T, name string, attrs ...catalog.Attribute) *catalog.AtomType {
	t.Helper()
	at, err := catalog.NewAtomType(name, append([]catalog.Attribute{{Name: "id", Type: catalog.SpecIdent()}}, attrs...), nil)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func mustInsert(t *testing.T, s *System, typeName string, values map[string]atom.Value) addr.LogicalAddr {
	t.Helper()
	a, err := s.Insert(typeName, values)
	if err != nil {
		t.Fatalf("insert %s: %v", typeName, err)
	}
	return a
}

// memberN reads member a's attribute n from the occurrence of cluster name
// rooted at root; ok is false when the occurrence does not hold a.
func memberN(t *testing.T, s *System, name string, root, a addr.LogicalAddr) (n int64, ok bool) {
	t.Helper()
	occ, err := s.ClusterOccurrenceOf(name, root)
	if err != nil {
		t.Fatalf("occurrence of %v: %v", root, err)
	}
	rec, ok := occ.Record(a)
	if !ok {
		return 0, false
	}
	v, _ := rec.Value("n")
	return v.I, true
}

// onlyRootsCarryClusterRefs fails when an atom of typeName has a cluster
// record in its directory entry.
func onlyRootsCarryClusterRefs(t *testing.T, s *System, typeName string) {
	t.Helper()
	at, _ := s.Schema().AtomType(typeName)
	s.dir.Scan(at.ID, func(a addr.LogicalAddr, refs []addr.RecordRef) bool {
		for _, r := range refs {
			if r.Kind == addr.KindCluster {
				t.Errorf("member %v carries a cluster ref %v", a, r)
			}
		}
		return true
	})
}

// TestClusterNMShare: a member that two roots reference (an n:m share)
// belongs to both occurrences; an update of it reaches both, and its delete
// leaves both.
func TestClusterNMShare(t *testing.T) {
	s := typedSystem(t,
		mustType(t, "r", catalog.Attribute{Name: "ks", Type: catalog.SpecSetOf(catalog.SpecRef("k", "rs"), 0, catalog.VarCard)}),
		mustType(t, "k", catalog.Attribute{Name: "n", Type: catalog.SpecInt()},
			catalog.Attribute{Name: "rs", Type: catalog.SpecSetOf(catalog.SpecRef("r", "ks"), 0, catalog.VarCard)}))
	shared := mustInsert(t, s, "k", map[string]atom.Value{"n": atom.Int(1)})
	own := mustInsert(t, s, "k", map[string]atom.Value{"n": atom.Int(2)})
	r1 := mustInsert(t, s, "r", map[string]atom.Value{"ks": atom.Set(atom.Ref(shared), atom.Ref(own))})
	r2 := mustInsert(t, s, "r", map[string]atom.Value{"ks": atom.Set(atom.Ref(shared))})
	if err := s.CreateCluster(&catalog.ClusterDef{Name: "rc", Molecule: &catalog.MoleculeType{
		Root: &catalog.MolNode{AtomType: "r", Children: []*catalog.MolNode{{AtomType: "k", Via: "ks"}}},
	}}); err != nil {
		t.Fatalf("CreateCluster: %v", err)
	}
	onlyRootsCarryClusterRefs(t, s, "k")
	want := func(when string, root addr.LogicalAddr, wantN int64, wantHeld bool) {
		t.Helper()
		n, held := memberN(t, s, "rc", root, shared)
		if held != wantHeld || held && n != wantN {
			t.Fatalf("%s: occurrence %v holds the shared member %v with n = %d, want held %v with n = %d", when, root, held, n, wantHeld, wantN)
		}
	}
	want("after CREATE", r1, 1, true)
	want("after CREATE", r2, 1, true)

	// A root inserted later shares the member too.
	r3 := mustInsert(t, s, "r", map[string]atom.Value{"ks": atom.Set(atom.Ref(shared))})
	want("after a third root's insert", r3, 1, true)

	if err := s.Update(shared, map[string]atom.Value{"n": atom.Int(5)}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []addr.LogicalAddr{r1, r2, r3} {
		want("after the member's update", r, 5, true)
	}

	if err := s.Delete(shared); err != nil {
		t.Fatal(err)
	}
	if err := s.PropagateDeferred(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []addr.LogicalAddr{r1, r2, r3} {
		want("after the member's delete", r, 0, false)
	}
	if n, held := memberN(t, s, "rc", r1, own); !held || n != 2 {
		t.Fatalf("r1's own member: held %v, n = %d", held, n)
	}
	onlyRootsCarryClusterRefs(t, s, "k")
}

// TestClusterRecursiveInvalidation: an update of an atom deep in a recursive
// molecule reaches every occurrence that holds it, up the recursive edge.
func TestClusterRecursiveInvalidation(t *testing.T) {
	s := typedSystem(t, mustType(t, "node",
		catalog.Attribute{Name: "n", Type: catalog.SpecInt()},
		catalog.Attribute{Name: "next", Type: catalog.SpecSetOf(catalog.SpecRef("node", "prev"), 0, catalog.VarCard)},
		catalog.Attribute{Name: "prev", Type: catalog.SpecSetOf(catalog.SpecRef("node", "next"), 0, catalog.VarCard)}))
	// A chain a -> b -> c: every node roots the occurrence of its tail.
	c := mustInsert(t, s, "node", map[string]atom.Value{"n": atom.Int(3)})
	b := mustInsert(t, s, "node", map[string]atom.Value{"n": atom.Int(2), "next": atom.Set(atom.Ref(c))})
	a := mustInsert(t, s, "node", map[string]atom.Value{"n": atom.Int(1), "next": atom.Set(atom.Ref(b))})
	if err := s.CreateCluster(&catalog.ClusterDef{Name: "chain", Molecule: &catalog.MoleculeType{
		Root: &catalog.MolNode{AtomType: "node", Children: []*catalog.MolNode{{AtomType: "node", Via: "next", Recursive: true}}},
	}}); err != nil {
		t.Fatalf("CreateCluster: %v", err)
	}
	if n, held := memberN(t, s, "chain", a, c); !held || n != 3 {
		t.Fatalf("a's occurrence: c held %v, n = %d", held, n)
	}
	if err := s.Update(c, map[string]atom.Value{"n": atom.Int(30)}); err != nil {
		t.Fatal(err)
	}
	cl, _ := s.clusterByName("chain")
	for _, root := range []addr.LogicalAddr{a, b, c} {
		if ref, ok := s.dir.LookupStruct(root, cl.def.ID); !ok || ref.Valid {
			t.Errorf("%v's occurrence is not stale after c's update: %v, %v", root, ref, ok)
		}
		if n, held := memberN(t, s, "chain", root, c); !held || n != 30 {
			t.Fatalf("%v's occurrence: c held %v, n = %d, want 30", root, held, n)
		}
	}
}

// TestClusterConcurrentRebuild: readers that find one occurrence stale all
// see it rebuilt, and it is rebuilt once: the container keeps one record per
// root.
func TestClusterConcurrentRebuild(t *testing.T) {
	s, parents := clusterSystem(t)
	if err := s.CreateCluster(clusterDef("pc")); err != nil {
		t.Fatal(err)
	}
	kids, _ := s.ScanAddrs("kid")
	if err := s.Update(kids[0], map[string]atom.Value{"n": atom.Int(777)}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			occ, err := s.ClusterOccurrenceOf("pc", parents[0])
			if err != nil {
				errs <- err.Error()
				return
			}
			if rec, ok := occ.Record(kids[0]); !ok {
				errs <- "a reader's occurrence lacks the kid"
			} else if v, _ := rec.Value("n"); v.I != 777 {
				errs <- "a reader saw the old value"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	cl, _ := s.clusterByName("pc")
	if n := cl.container.Count(); n != len(parents) {
		t.Fatalf("the cluster's container holds %d records for %d roots", n, len(parents))
	}
}

// TestClusterStaleRefNeverTouchesAnotherRoot: a root's ref that locates
// another root's record (a slot reused after a crash, say) is no
// occurrence. Reading, rebuilding or deleting through it leaves the other
// root's record alone.
func TestClusterStaleRefNeverTouchesAnotherRoot(t *testing.T) {
	s, parents := clusterSystem(t)
	if err := s.CreateCluster(clusterDef("pc")); err != nil {
		t.Fatal(err)
	}
	cl, _ := s.clusterByName("pc")
	a, b := parents[0], parents[1]
	pointAtB := func() {
		t.Helper()
		refB, _ := s.dir.LookupStruct(b, cl.def.ID)
		if err := s.dir.Update(a, cl.def.ID, refB.Where); err != nil {
			t.Fatal(err)
		}
	}
	bIntact := func(when string) {
		t.Helper()
		occ, err := s.ClusterOccurrenceOf("pc", b)
		if err != nil || occ.Records[0].Addr != b || len(occ.Records) != 5 {
			t.Fatalf("%s: b's occurrence: %v", when, err)
		}
		if ref, _ := s.dir.LookupStruct(b, cl.def.ID); !ref.Valid {
			t.Fatalf("%s: b's occurrence went stale", when)
		}
	}
	pointAtB()
	occ, err := s.ClusterOccurrenceOf("pc", a)
	if err != nil {
		t.Fatal(err)
	}
	if occ.Records[0].Addr != a || len(occ.Records) != 5 {
		t.Fatalf("a's occurrence through a ref at b's record is rooted at %v with %d members", occ.Records[0].Addr, len(occ.Records))
	}
	bIntact("after a's read")

	kid := occ.Records[1].Addr
	if err := s.Update(kid, map[string]atom.Value{"n": atom.Int(99)}); err != nil {
		t.Fatal(err)
	}
	pointAtB()
	if err := s.PropagateDeferred(); err != nil {
		t.Fatal(err)
	}
	bIntact("after a's rebuild")
	if n, held := memberN(t, s, "pc", a, kid); !held || n != 99 {
		t.Fatalf("a's rebuilt occurrence: kid held %v, n = %d", held, n)
	}

	pointAtB()
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	bIntact("after a's delete")
}
