package access

import (
	"errors"
	"strings"
	"testing"

	"prima/internal/access/atom"
	"prima/internal/access/btree"
	"prima/internal/catalog"
)

// TestInsertSetRollsBackOnWriteFailure: when a member's store fails, the
// members stored before it are rolled back, and no partner is updated.
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
	if err := s.InsertSet(set); !errors.Is(err, btree.ErrKeyTooLarge) {
		t.Fatalf("InsertSet = %v, want ErrKeyTooLarge", err)
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
	if err := s.InsertSet(set); !errors.Is(err, ErrSetUsed) {
		t.Fatalf("second InsertSet of a set = %v, want ErrSetUsed", err)
	}
}
