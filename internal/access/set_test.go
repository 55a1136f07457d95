package access

import (
	"errors"
	"strings"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/btree"
	"prima/internal/catalog"
)

// TestInsertSetRollsBackOnWriteFailure: when a member's store fails, the
// members stored before it are rolled back, and no partner is updated. A set
// that deletes one atom and updates another before its failing member is
// undone the same way: the deleted atom comes back whole, the updated one
// gets its pre-image back, and the partner is untouched.
func TestInsertSetRollsBackOnWriteFailure(t *testing.T) {
	s := newSystem(t)
	author, err := s.Insert("author", map[string]atom.Value{"name": atom.Str("Härder")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateAccessPath(&catalog.AccessPathDef{Name: "doc_title", AtomType: "doc", Attrs: []string{"title"}, Method: "BTREE"}); err != nil {
		t.Fatal(err)
	}
	set := s.NewAtomSet()
	d1, err := set.Add("doc", map[string]atom.Value{"title": atom.Str("PRIMA"), "authors": atom.RefSet(author)})
	if err != nil {
		t.Fatal(err)
	}
	// A title too long for a B-tree key fails the second member's store.
	if _, err := set.Add("doc", map[string]atom.Value{"title": atom.Str(strings.Repeat("x", 2000)), "authors": atom.RefSet(author)}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSet(set); !errors.Is(err, btree.ErrKeyTooLarge) {
		t.Fatalf("WriteSet = %v, want ErrKeyTooLarge", err)
	}
	if s.Directory().Exists(d1) {
		t.Fatalf("member %v stored before the failure is still live", d1)
	}
	if found, err := s.AccessPathSearch("doc_title", []atom.Value{atom.Str("PRIMA")}); err != nil || len(found) != 0 {
		t.Fatalf("access path still finds the rolled-back member: %v, %v", found, err)
	}
	at, err := s.Get(author, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := at.Value("docs"); len(v.E) != 0 {
		t.Fatalf("partner edited by a failed set: docs = %v", v)
	}
	if err := s.WriteSet(set); !errors.Is(err, ErrSetUsed) {
		t.Fatalf("second WriteSet of a set = %v, want ErrSetUsed", err)
	}

	var docs [3]addr.LogicalAddr
	for i, title := range []string{"gone", "kept", "long"} {
		if docs[i], err = s.Insert("doc", map[string]atom.Value{"title": atom.Str(title), "authors": atom.RefSet(author)}); err != nil {
			t.Fatal(err)
		}
	}
	set = s.NewAtomSet()
	for _, err := range []error{
		set.Delete(docs[0]),
		set.Change(docs[1], "title", atom.Str("retitled")),
		set.Change(docs[2], "title", atom.Str(strings.Repeat("x", 2000))),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSet(set); !errors.Is(err, btree.ErrKeyTooLarge) {
		t.Fatalf("WriteSet of a delete and updates = %v, want ErrKeyTooLarge", err)
	}
	for i, title := range []string{"gone", "kept"} {
		d, err := s.Get(docs[i], nil)
		if err != nil {
			t.Fatalf("doc %q after the rollback: %v", title, err)
		}
		if v, _ := d.Value("title"); v.S != title {
			t.Fatalf("doc %q after the rollback is titled %q", title, v.S)
		}
		if found, err := s.AccessPathSearch("doc_title", []atom.Value{atom.Str(title)}); err != nil || len(found) != 1 || found[0] != docs[i] {
			t.Fatalf("access path finds %v for %q after the rollback, %v", found, title, err)
		}
	}
	if at, err = s.Get(author, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := at.Value("docs"); len(v.E) != 3 {
		t.Fatalf("partner after a rolled-back delete: docs = %v", v)
	}
}
