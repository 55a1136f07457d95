package catalog

import (
	"bytes"
	"testing"
)

// FuzzLoadSchema feeds arbitrary bytes to Load: schema.json is read at every
// open, so a damaged or hostile file must be refused with an error, never
// crash the process. What Load accepts must be a schema: it saves, and the
// saved bytes load to a schema that saves to the same bytes. The seeds are a
// real Save of the Fig. 2.3 schema with LDL structures, and hostile files: a
// null entry in each list, a cluster without a molecule, a molecule type
// without a root. CI runs the target for 20 s:
//
//	go test ./internal/catalog -run '^$' -fuzz FuzzLoadSchema -fuzztime 20s
func FuzzLoadSchema(f *testing.F) {
	s := solidSchema(f)
	s.DefineMoleculeType(&MoleculeType{Name: "piece_list", Root: &MolNode{
		AtomType: "solid",
		Children: []*MolNode{{AtomType: "solid", Via: "sub", Recursive: true}},
	}})
	s.AddAccessPath(&AccessPathDef{Name: "bno", AtomType: "brep", Attrs: []string{"brep_no"}})
	s.AddSortOrder(&SortOrderDef{Name: "so", AtomType: "edge", Attrs: []string{"length"}})
	s.AddCluster(&ClusterDef{Name: "cl", Molecule: &MoleculeType{Root: &MolNode{
		AtomType: "brep", Children: []*MolNode{{AtomType: "face"}},
	}}})
	real, err := s.Save()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	for _, seed := range []string{
		`{"atomTypes":[null]}`,
		`{"atomTypes":[],"moleculeTypes":[null]}`,
		`{"atomTypes":[],"accessPaths":[null]}`,
		`{"atomTypes":[],"sortOrders":[null]}`,
		`{"atomTypes":[],"partitions":[null]}`,
		`{"atomTypes":[],"clusters":[null]}`,
		`{"atomTypes":[],"clusters":[{"name":"c"}]}`,
		`{"atomTypes":[],"moleculeTypes":[{"name":"m"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(data)
		if err != nil {
			return
		}
		saved, err := s.Save()
		if err != nil {
			t.Fatalf("accepted schema does not save: %v", err)
		}
		s2, err := Load(saved)
		if err != nil {
			t.Fatalf("saved schema does not load: %v\n%s", err, saved)
		}
		again, err := s2.Save()
		if err != nil || !bytes.Equal(saved, again) {
			t.Fatalf("save, load, save is not stable (%v):\n%s\n---\n%s", err, saved, again)
		}
	})
}

// TestLoadRefusesHostileSchemas pins the refusals of null entries, a
// cluster without a molecule and a molecule type without a root.
func TestLoadRefusesHostileSchemas(t *testing.T) {
	for _, bad := range []string{
		`{"atomTypes":[null]}`,
		`{"atomTypes":[],"moleculeTypes":[null]}`,
		`{"atomTypes":[],"accessPaths":[null]}`,
		`{"atomTypes":[],"clusters":[null]}`,
		`{"atomTypes":[],"clusters":[{"name":"c"}]}`,
		`{"atomTypes":[],"moleculeTypes":[{"name":"m"}]}`,
	} {
		if _, err := Load([]byte(bad)); err == nil {
			t.Errorf("Load accepted %s", bad)
		}
	}
}
