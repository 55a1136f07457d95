package access

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/mdindex"
	"prima/internal/catalog"
)

// testSchema installs a small two-type schema with an n:m association
// (person.knows <-> person.known_by is deliberately NOT used; we use
// doc/author to exercise cross-type n:m) plus scalars for indexing.
func newSystem(t testing.TB) *System { return newSystemWith(t, Config{}) }

// newSystemWith is newSystem under cfg.
func newSystemWith(t testing.TB, cfg Config) *System {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	doc, err := catalog.NewAtomType("doc", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "title", Type: catalog.SpecString()},
		{Name: "pages", Type: catalog.SpecInt()},
		{Name: "score", Type: catalog.SpecReal()},
		{Name: "authors", Type: catalog.SpecSetOf(catalog.SpecRef("author", "docs"), 0, catalog.VarCard)},
	}, []string{"pages"})
	if err != nil {
		t.Fatalf("NewAtomType: %v", err)
	}
	author, err := catalog.NewAtomType("author", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "name", Type: catalog.SpecString()},
		{Name: "docs", Type: catalog.SpecSetOf(catalog.SpecRef("doc", "authors"), 0, catalog.VarCard)},
	}, nil)
	if err != nil {
		t.Fatalf("NewAtomType: %v", err)
	}
	if err := s.Schema().AddAtomType(doc); err != nil {
		t.Fatalf("AddAtomType: %v", err)
	}
	if err := s.Schema().AddAtomType(author); err != nil {
		t.Fatalf("AddAtomType: %v", err)
	}
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatalf("ResolveAssociations: %v", err)
	}
	return s
}

func TestInsertGet(t *testing.T) {
	s := newSystem(t)
	a, err := s.Insert("doc", map[string]atom.Value{
		"title": atom.Str("PRIMA"),
		"pages": atom.Int(10),
		"score": atom.Real(4.5),
	})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	at, err := s.Get(a, nil)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v, _ := at.Value("title"); v.S != "PRIMA" {
		t.Fatalf("title = %v", v)
	}
	if v, _ := at.Value("id"); v.A != a {
		t.Fatalf("IDENTIFIER = %v, want %v", v.A, a)
	}
	// Projection.
	proj, err := s.Get(a, []string{"pages"})
	if err != nil {
		t.Fatalf("Get projected: %v", err)
	}
	if v, _ := proj.Value("pages"); v.I != 10 {
		t.Fatalf("projected pages = %v", v)
	}
	if v, _ := proj.Value("title"); !v.IsNull() {
		t.Fatalf("unprojected attr not NULL: %v", v)
	}

	// Error paths.
	if _, err := s.Insert("ghost", nil); !errors.Is(err, catalog.ErrUnknownType) {
		t.Fatalf("Insert unknown type = %v", err)
	}
	if _, err := s.Insert("doc", map[string]atom.Value{"nope": atom.Int(1)}); !errors.Is(err, catalog.ErrUnknownAttr) {
		t.Fatalf("Insert unknown attr = %v", err)
	}
	if _, err := s.Insert("doc", map[string]atom.Value{"id": atom.Ident(1)}); !errors.Is(err, ErrReadOnlyAttr) {
		t.Fatalf("Insert with IDENTIFIER = %v", err)
	}
	if _, err := s.Insert("doc", map[string]atom.Value{"pages": atom.Str("x")}); !errors.Is(err, catalog.ErrTypeCheck) {
		t.Fatalf("Insert bad type = %v", err)
	}
	if _, err := s.Get(addr.New(99, 1), nil); err == nil {
		t.Fatal("Get of unknown type succeeded")
	}
}

func TestBackReferenceMaintenance(t *testing.T) {
	s := newSystem(t)
	a1, _ := s.Insert("author", map[string]atom.Value{"name": atom.Str("Härder")})
	a2, _ := s.Insert("author", map[string]atom.Value{"name": atom.Str("Mitschang")})

	// Insert a doc referencing both authors: back-refs must appear.
	d, err := s.Insert("doc", map[string]atom.Value{
		"title":   atom.Str("MAD model"),
		"authors": atom.RefSet(a1, a2),
	})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for _, a := range []addr.LogicalAddr{a1, a2} {
		at, _ := s.Get(a, nil)
		if v, _ := at.Value("docs"); !v.ContainsRef(d) {
			t.Fatalf("author %v missing back-reference to %v", a, d)
		}
	}

	// Referencing a missing atom fails.
	if _, err := s.Insert("doc", map[string]atom.Value{
		"authors": atom.RefSet(addr.New(a1.Type(), 9999)),
	}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("dangling ref = %v, want ErrBadRef", err)
	}
	// Referencing the wrong type fails.
	if _, err := s.Insert("doc", map[string]atom.Value{
		"authors": atom.RefSet(d), // a doc, not an author
	}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("wrong-type ref = %v, want ErrBadRef", err)
	}

	// Disconnect removes both directions.
	if err := s.Disconnect(d, "authors", a1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	dAt, _ := s.Get(d, nil)
	if v, _ := dAt.Value("authors"); v.ContainsRef(a1) {
		t.Fatal("forward reference survives Disconnect")
	}
	a1At, _ := s.Get(a1, nil)
	if v, _ := a1At.Value("docs"); v.ContainsRef(d) {
		t.Fatal("back reference survives Disconnect")
	}

	// Connect from the *other* side: symmetry works in both directions.
	if err := s.Connect(a1, "docs", d); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	dAt, _ = s.Get(d, nil)
	if v, _ := dAt.Value("authors"); !v.ContainsRef(a1) {
		t.Fatal("Connect from partner side did not maintain forward ref")
	}

	// Delete removes the atom from all partners.
	if err := s.Delete(d); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for _, a := range []addr.LogicalAddr{a1, a2} {
		at, _ := s.Get(a, nil)
		if v, _ := at.Value("docs"); v.ContainsRef(d) {
			t.Fatalf("author %v still references deleted doc", a)
		}
	}
	if _, err := s.Get(d, nil); err == nil {
		t.Fatal("deleted atom still readable")
	}
}

func TestUpdateRefDiff(t *testing.T) {
	s := newSystem(t)
	a1, _ := s.Insert("author", map[string]atom.Value{"name": atom.Str("A")})
	a2, _ := s.Insert("author", map[string]atom.Value{"name": atom.Str("B")})
	a3, _ := s.Insert("author", map[string]atom.Value{"name": atom.Str("C")})
	d, _ := s.Insert("doc", map[string]atom.Value{"authors": atom.RefSet(a1, a2)})

	// Replace {a1,a2} with {a2,a3}.
	if err := s.Update(d, map[string]atom.Value{"authors": atom.RefSet(a2, a3)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	check := func(a addr.LogicalAddr, want bool) {
		t.Helper()
		at, _ := s.Get(a, nil)
		v, _ := at.Value("docs")
		if v.ContainsRef(d) != want {
			t.Fatalf("author %v back-ref = %v, want %v", a, v.ContainsRef(d), want)
		}
	}
	check(a1, false)
	check(a2, true)
	check(a3, true)
}

func TestAtomTypeScanWithSSA(t *testing.T) {
	s := newSystem(t)
	for i := 0; i < 20; i++ {
		if _, err := s.Insert("doc", map[string]atom.Value{
			"pages": atom.Int(int64(i)),
			"title": atom.Str("t"),
		}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var got []int64
	err := s.AtomTypeScan("doc", SSA{{Attr: "pages", Op: OpGE, Value: atom.Int(15)}}, nil, func(at *Atom) bool {
		v, _ := at.Value("pages")
		got = append(got, v.I)
		return true
	})
	if err != nil {
		t.Fatalf("AtomTypeScan: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("SSA scan returned %d atoms, want 5", len(got))
	}
	// System-defined order = insertion order.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("atom-type scan out of system-defined order")
		}
	}

	// EMPTY predicate on a repeating group.
	n := 0
	err = s.AtomTypeScan("doc", SSA{{Attr: "authors", Op: OpEmpty}}, nil, func(*Atom) bool {
		n++
		return true
	})
	if err != nil || n != 20 {
		t.Fatalf("EMPTY scan = %d, %v", n, err)
	}
}

func TestAccessPathMaintenance(t *testing.T) {
	s := newSystem(t)
	var docs []addr.LogicalAddr
	for i := 0; i < 10; i++ {
		d, _ := s.Insert("doc", map[string]atom.Value{"pages": atom.Int(int64(i * 10))})
		docs = append(docs, d)
	}
	// Create after the fact: backfill must index existing atoms.
	if err := s.CreateAccessPath(&catalog.AccessPathDef{
		Name: "doc_pages", AtomType: "doc", Attrs: []string{"pages"},
	}); err != nil {
		t.Fatalf("CreateAccessPath: %v", err)
	}
	found, err := s.AccessPathSearch("doc_pages", []atom.Value{atom.Int(50)})
	if err != nil || len(found) != 1 || found[0] != docs[5] {
		t.Fatalf("AccessPathSearch = %v, %v", found, err)
	}

	// Update repositions the entry.
	if err := s.Update(docs[5], map[string]atom.Value{"pages": atom.Int(555)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	found, _ = s.AccessPathSearch("doc_pages", []atom.Value{atom.Int(50)})
	if len(found) != 0 {
		t.Fatal("stale index entry after update")
	}
	found, _ = s.AccessPathSearch("doc_pages", []atom.Value{atom.Int(555)})
	if len(found) != 1 {
		t.Fatal("index not updated with new key")
	}

	// Delete drops the entry.
	if err := s.Delete(docs[5]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	found, _ = s.AccessPathSearch("doc_pages", []atom.Value{atom.Int(555)})
	if len(found) != 0 {
		t.Fatal("index entry survives delete")
	}

	// New inserts are indexed.
	d, _ := s.Insert("doc", map[string]atom.Value{"pages": atom.Int(42)})
	found, _ = s.AccessPathSearch("doc_pages", []atom.Value{atom.Int(42)})
	if len(found) != 1 || found[0] != d {
		t.Fatal("new insert not indexed")
	}
}

func TestGridAccessPath(t *testing.T) {
	s := newSystem(t)
	if err := s.CreateAccessPath(&catalog.AccessPathDef{
		Name: "doc_multi", AtomType: "doc", Attrs: []string{"pages", "score"},
	}); err != nil {
		t.Fatalf("CreateAccessPath: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Insert("doc", map[string]atom.Value{
			"pages": atom.Int(int64(i % 10)),
			"score": atom.Real(float64(i) / 10),
		}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	lo, hi := atom.Int(3), atom.Int(5)
	slo, shi := atom.Real(1.0), atom.Real(3.0)
	want := 0
	s.AtomTypeScan("doc", nil, nil, func(at *Atom) bool {
		p, _ := at.Value("pages")
		sc, _ := at.Value("score")
		if p.I >= 3 && p.I <= 5 && sc.F >= 1.0 && sc.F <= 3.0 {
			want++
		}
		return true
	})
	n := 0
	err := s.AccessPathScan("doc_multi",
		[]mdindex.Range{{Start: &lo, Stop: &hi}, {Start: &slo, Stop: &shi}},
		func(keys []atom.Value, a addr.LogicalAddr) bool {
			n++
			return true
		})
	if err != nil {
		t.Fatalf("AccessPathScan: %v", err)
	}
	if n != want || n == 0 {
		t.Fatalf("grid scan = %d hits, brute force = %d", n, want)
	}
}

// checkSymmetry verifies the central MAD invariant: for every reference
// attribute, a -> b implies b's back attribute contains a, and vice versa.
func checkSymmetry(t testing.TB, s *System) {
	t.Helper()
	for _, at := range s.Schema().AtomTypes() {
		var fail error
		s.AtomTypeScan(at.Name, nil, nil, func(a *Atom) bool {
			for _, i := range at.RefAttrs() {
				_, backAttr, _ := at.Attrs[i].Type.RefTarget()
				for target := range a.Values[i].AllRefs() {
					p, err := s.Get(target, nil)
					if err != nil {
						fail = err
						return false
					}
					bv, ok := p.Value(backAttr)
					if !ok || !bv.ContainsRef(a.Addr) {
						fail = errorsNew(a.Addr, at.Attrs[i].Name, target)
						return false
					}
				}
			}
			return true
		})
		if fail != nil {
			t.Fatalf("symmetry violated: %v", fail)
		}
	}
}

func errorsNew(a addr.LogicalAddr, attr string, target addr.LogicalAddr) error {
	return errors.New("missing back-reference: " + a.String() + "." + attr + " -> " + target.String())
}

// Property: under arbitrary random sequences of insert / connect /
// disconnect / update / delete, reference symmetry always holds — the
// paper's "system-enforced integrity".
func TestSymmetryQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newSystem(t)
		var docs, authors []addr.LogicalAddr
		for op := 0; op < 120; op++ {
			switch rng.Intn(6) {
			case 0:
				d, err := s.Insert("doc", map[string]atom.Value{"pages": atom.Int(int64(rng.Intn(100)))})
				if err != nil {
					return false
				}
				docs = append(docs, d)
			case 1:
				a, err := s.Insert("author", map[string]atom.Value{"name": atom.Str("x")})
				if err != nil {
					return false
				}
				authors = append(authors, a)
			case 2: // connect random doc-author pair (either side)
				if len(docs) == 0 || len(authors) == 0 {
					continue
				}
				d := docs[rng.Intn(len(docs))]
				a := authors[rng.Intn(len(authors))]
				var err error
				if rng.Intn(2) == 0 {
					err = s.Connect(d, "authors", a)
				} else {
					err = s.Connect(a, "docs", d)
				}
				if err != nil {
					return false
				}
			case 3: // disconnect
				if len(docs) == 0 || len(authors) == 0 {
					continue
				}
				d := docs[rng.Intn(len(docs))]
				a := authors[rng.Intn(len(authors))]
				if err := s.Disconnect(d, "authors", a); err != nil {
					return false
				}
			case 4: // scalar update
				if len(docs) == 0 {
					continue
				}
				d := docs[rng.Intn(len(docs))]
				if err := s.Update(d, map[string]atom.Value{"pages": atom.Int(int64(rng.Intn(100)))}); err != nil {
					return false
				}
			case 5: // delete
				if rng.Intn(2) == 0 && len(docs) > 0 {
					i := rng.Intn(len(docs))
					if err := s.Delete(docs[i]); err != nil {
						return false
					}
					docs = append(docs[:i], docs[i+1:]...)
				} else if len(authors) > 0 {
					i := rng.Intn(len(authors))
					if err := s.Delete(authors[i]); err != nil {
						return false
					}
					authors = append(authors[:i], authors[i+1:]...)
				}
			}
		}
		checkSymmetry(t, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
