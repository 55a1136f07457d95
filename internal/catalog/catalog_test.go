package catalog

import (
	"errors"
	"testing"

	"prima/internal/access/atom"
)

// solidSchema builds the Fig. 2.3 schema (solid, brep, face, edge, point)
// programmatically. HULL_DIM(3) is modeled as ARRAY_OF(REAL, 6) — a
// min/max bounding box per dimension (documented substitution).
func solidSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema()

	mustAdd := func(name string, attrs []Attribute, keys ...string) {
		t.Helper()
		at, err := NewAtomType(name, attrs, keys)
		if err != nil {
			t.Fatalf("NewAtomType(%s): %v", name, err)
		}
		if err := s.AddAtomType(at); err != nil {
			t.Fatalf("AddAtomType(%s): %v", name, err)
		}
	}

	mustAdd("solid", []Attribute{
		{Name: "solid_id", Type: SpecIdent()},
		{Name: "solid_no", Type: SpecInt()},
		{Name: "description", Type: SpecString()},
		{Name: "sub", Type: SpecSetOf(SpecRef("solid", "super"), 0, VarCard)},
		{Name: "super", Type: SpecSetOf(SpecRef("solid", "sub"), 0, VarCard)},
		{Name: "brep", Type: SpecRef("brep", "solid")},
	}, "solid_no")

	mustAdd("brep", []Attribute{
		{Name: "brep_id", Type: SpecIdent()},
		{Name: "brep_no", Type: SpecInt()},
		{Name: "hull", Type: SpecArrayOf(SpecReal(), 6)},
		{Name: "solid", Type: SpecRef("solid", "brep")},
		{Name: "faces", Type: SpecSetOf(SpecRef("face", "brep"), 4, VarCard)},
		{Name: "edges", Type: SpecSetOf(SpecRef("edge", "brep"), 6, VarCard)},
		{Name: "points", Type: SpecSetOf(SpecRef("point", "brep"), 4, VarCard)},
	}, "brep_no")

	mustAdd("face", []Attribute{
		{Name: "face_id", Type: SpecIdent()},
		{Name: "square_dim", Type: SpecReal()},
		{Name: "border", Type: SpecSetOf(SpecRef("edge", "face"), 3, VarCard)},
		{Name: "crosspoint", Type: SpecSetOf(SpecRef("point", "face"), 3, VarCard)},
		{Name: "brep", Type: SpecRef("brep", "faces")},
	})

	mustAdd("edge", []Attribute{
		{Name: "edge_id", Type: SpecIdent()},
		{Name: "length", Type: SpecReal()},
		{Name: "boundary", Type: SpecSetOf(SpecRef("point", "line"), 2, VarCard)},
		{Name: "face", Type: SpecSetOf(SpecRef("face", "border"), 2, VarCard)},
		{Name: "brep", Type: SpecRef("brep", "edges")},
	})

	mustAdd("point", []Attribute{
		{Name: "point_id", Type: SpecIdent()},
		{Name: "placement", Type: SpecRecord(
			RecordField{Name: "x_coord", Type: SpecReal()},
			RecordField{Name: "y_coord", Type: SpecReal()},
			RecordField{Name: "z_coord", Type: SpecReal()},
		)},
		{Name: "line", Type: SpecSetOf(SpecRef("edge", "boundary"), 1, VarCard)},
		{Name: "face", Type: SpecSetOf(SpecRef("face", "crosspoint"), 1, VarCard)},
		{Name: "brep", Type: SpecRef("brep", "points")},
	})

	if err := s.ResolveAssociations(); err != nil {
		t.Fatalf("ResolveAssociations: %v", err)
	}
	return s
}

func TestFig23SchemaResolves(t *testing.T) {
	s := solidSchema(t)
	if got := len(s.AtomTypes()); got != 5 {
		t.Fatalf("%d atom types, want 5", got)
	}
	solid, _ := s.AtomType("solid")
	if solid.IdentIndex() != 0 {
		t.Fatalf("solid IdentIndex = %d, want 0", solid.IdentIndex())
	}
	if got := solid.AttrsTargeting("solid"); len(got) != 2 {
		t.Fatalf("solid self-associations = %d, want 2 (sub, super)", len(got))
	}
	if got := solid.AttrsTargeting("brep"); len(got) != 1 {
		t.Fatalf("solid->brep associations = %d, want 1", len(got))
	}
}

func TestAtomTypeValidation(t *testing.T) {
	// No IDENTIFIER.
	if _, err := NewAtomType("x", []Attribute{{Name: "a", Type: SpecInt()}}, nil); !errors.Is(err, ErrBadAtomType) {
		t.Fatalf("missing IDENTIFIER = %v, want ErrBadAtomType", err)
	}
	// Two IDENTIFIERs.
	if _, err := NewAtomType("x", []Attribute{
		{Name: "a", Type: SpecIdent()}, {Name: "b", Type: SpecIdent()},
	}, nil); !errors.Is(err, ErrBadAtomType) {
		t.Fatalf("double IDENTIFIER = %v, want ErrBadAtomType", err)
	}
	// Duplicate attribute names.
	if _, err := NewAtomType("x", []Attribute{
		{Name: "a", Type: SpecIdent()}, {Name: "a", Type: SpecInt()},
	}, nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate attr = %v, want ErrDuplicate", err)
	}
	// Unknown key attribute.
	if _, err := NewAtomType("x", []Attribute{{Name: "a", Type: SpecIdent()}}, []string{"zzz"}); !errors.Is(err, ErrBadAtomType) {
		t.Fatalf("bad key = %v, want ErrBadAtomType", err)
	}
	// Non-scalar key attribute.
	if _, err := NewAtomType("x", []Attribute{
		{Name: "a", Type: SpecIdent()},
		{Name: "s", Type: SpecSetOf(SpecInt(), 0, VarCard)},
	}, []string{"s"}); !errors.Is(err, ErrBadAtomType) {
		t.Fatalf("set key = %v, want ErrBadAtomType", err)
	}
	// Nesting the codec would refuse to read back: MaxDepth levels pass, one
	// more does not.
	deep := SpecInt()
	for i := 0; i < atom.MaxDepth; i += 2 { // a RECORD and a LIST per round
		deep = SpecRecord(RecordField{Name: "f", Type: SpecListOf(deep)})
	}
	attrs := func(ts TypeSpec) []Attribute {
		return []Attribute{{Name: "a", Type: SpecIdent()}, {Name: "d", Type: ts}}
	}
	if _, err := NewAtomType("x", attrs(deep), nil); err != nil {
		t.Fatalf("%d levels of nesting: %v", atom.MaxDepth, err)
	}
	if _, err := NewAtomType("x", attrs(SpecArrayOf(deep, 2)), nil); !errors.Is(err, ErrBadAtomType) {
		t.Fatalf("%d levels of nesting = %v, want ErrBadAtomType", atom.MaxDepth+1, err)
	}
}

func TestAsymmetricAssociationRejected(t *testing.T) {
	s := NewSchema()
	a, _ := NewAtomType("a", []Attribute{
		{Name: "id", Type: SpecIdent()},
		{Name: "b", Type: SpecRef("b", "a")},
	}, nil)
	if err := s.AddAtomType(a); err != nil {
		t.Fatalf("AddAtomType: %v", err)
	}

	// b.a points to the wrong back attribute.
	b, _ := NewAtomType("b", []Attribute{
		{Name: "id", Type: SpecIdent()},
		{Name: "a", Type: SpecRef("a", "id")},
	}, nil)
	if err := s.AddAtomType(b); err != nil {
		t.Fatalf("AddAtomType: %v", err)
	}
	if err := s.ResolveAssociations(); !errors.Is(err, ErrAsymmetric) {
		t.Fatalf("ResolveAssociations = %v, want ErrAsymmetric", err)
	}

	// Unknown target type.
	s2 := NewSchema()
	c, _ := NewAtomType("c", []Attribute{
		{Name: "id", Type: SpecIdent()},
		{Name: "x", Type: SpecRef("ghost", "y")},
	}, nil)
	s2.AddAtomType(c)
	if err := s2.ResolveAssociations(); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown target = %v, want ErrUnknownType", err)
	}
}

func TestTypeSpecCheck(t *testing.T) {
	cases := []struct {
		spec TypeSpec
		v    atom.Value
		ok   bool
	}{
		{SpecInt(), atom.Int(5), true},
		{SpecInt(), atom.Str("x"), false},
		{SpecInt(), atom.Null(), true},
		{SpecIdent(), atom.Null(), false},
		{SpecReal(), atom.Int(5), true}, // widening
		{SpecReal(), atom.Real(5.5), true},
		{SpecString(), atom.Str("ok"), true},
		{SpecRef("a", "b"), atom.Ref(1), true},
		{SpecRef("a", "b"), atom.Int(1), false},
		{SpecSetOf(SpecInt(), 0, VarCard), atom.Set(atom.Int(1), atom.Int(2)), true},
		{SpecSetOf(SpecInt(), 0, VarCard), atom.Set(atom.Str("x")), false},
		{SpecSetOf(SpecInt(), 0, VarCard), atom.List(atom.Int(1)), false},
		{SpecArrayOf(SpecReal(), 2), atom.Array(atom.Real(1), atom.Real(2)), true},
		{SpecArrayOf(SpecReal(), 2), atom.Array(atom.Real(1)), false},
		{SpecRecord(RecordField{"x", SpecReal()}, RecordField{"y", SpecReal()}),
			atom.Record(atom.Real(1), atom.Real(2)), true},
		{SpecRecord(RecordField{"x", SpecReal()}), atom.Record(), false},
	}
	for i, c := range cases {
		err := c.spec.Check(c.v)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Check(%v against %v) = %v, want ok=%v", i, c.v, c.spec, err, c.ok)
		}
	}
}

func TestCardinalityCheck(t *testing.T) {
	spec := SpecSetOf(SpecRef("face", "brep"), 4, VarCard)
	if err := spec.CheckCard(atom.Set(atom.Ref(1), atom.Ref(2), atom.Ref(3))); err == nil {
		t.Fatal("3 elements accepted with minimum 4")
	}
	if err := spec.CheckCard(atom.Set(atom.Ref(1), atom.Ref(2), atom.Ref(3), atom.Ref(4))); err != nil {
		t.Fatalf("4 elements rejected: %v", err)
	}
	bounded := SpecSetOf(SpecInt(), 1, 2)
	if err := bounded.CheckCard(atom.Set(atom.Int(1), atom.Int(2), atom.Int(3))); err == nil {
		t.Fatal("3 elements accepted with maximum 2")
	}
}

func TestMoleculeTypeValidation(t *testing.T) {
	s := solidSchema(t)

	// Unambiguous chain brep-face-edge-point (the Table 2.1a molecule).
	m := &MoleculeType{Name: "brep_obj", Root: &MolNode{
		AtomType: "brep",
		Children: []*MolNode{{
			AtomType: "face",
			Children: []*MolNode{{
				AtomType: "edge", Via: "border",
				Children: []*MolNode{{AtomType: "point", Via: "boundary"}},
			}},
		}},
	}}
	if err := m.Validate(s); err != nil {
		t.Fatalf("Validate brep chain: %v", err)
	}
	// The brep->face edge was unqualified; validation must resolve Via.
	if m.Root.Children[0].Via != "faces" {
		t.Fatalf("resolved Via = %q, want faces", m.Root.Children[0].Via)
	}

	// Ambiguous edge: edge and point are connected via boundary AND via
	// nothing else... face and point connect via crosspoint only, fine.
	// solid-solid without qualification is ambiguous (sub and super).
	amb := &MoleculeType{Root: &MolNode{
		AtomType: "solid",
		Children: []*MolNode{{AtomType: "solid"}},
	}}
	if err := amb.Validate(s); !errors.Is(err, ErrBadMolecule) {
		t.Fatalf("ambiguous edge = %v, want ErrBadMolecule", err)
	}

	// Qualified recursive piece_list (Fig. 2.3c).
	rec := &MoleculeType{Name: "piece_list", Root: &MolNode{
		AtomType: "solid",
		Children: []*MolNode{{AtomType: "solid", Via: "sub", Recursive: true}},
	}}
	if err := rec.Validate(s); err != nil {
		t.Fatalf("Validate piece_list: %v", err)
	}
	if !rec.IsRecursive() {
		t.Fatal("IsRecursive = false")
	}

	// Unknown atom type.
	bad := &MoleculeType{Root: &MolNode{AtomType: "ghost"}}
	if err := bad.Validate(s); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown type = %v, want ErrUnknownType", err)
	}

	// Via attribute that is not an association.
	bad2 := &MoleculeType{Root: &MolNode{
		AtomType: "brep",
		Children: []*MolNode{{AtomType: "face", Via: "brep_no"}},
	}}
	if err := bad2.Validate(s); !errors.Is(err, ErrBadMolecule) {
		t.Fatalf("non-ref via = %v, want ErrBadMolecule", err)
	}

	// Register and fetch.
	if err := s.DefineMoleculeType(m); err != nil {
		t.Fatalf("DefineMoleculeType: %v", err)
	}
	if err := s.DefineMoleculeType(m); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate molecule type = %v, want ErrDuplicate", err)
	}
	got, ok := s.MoleculeType("brep_obj")
	if !ok || got.Root.AtomType != "brep" {
		t.Fatalf("MoleculeType lookup failed: %v %v", got, ok)
	}
	if got := m.AtomTypes(); len(got) != 4 || got[0] != "brep" {
		t.Fatalf("AtomTypes = %v", got)
	}
}

func TestLDLDefinitions(t *testing.T) {
	s := solidSchema(t)

	if err := s.AddAccessPath(&AccessPathDef{Name: "solid_no_idx", AtomType: "solid", Attrs: []string{"solid_no"}}); err != nil {
		t.Fatalf("AddAccessPath: %v", err)
	}
	d, _ := s.AccessPath("solid_no_idx")
	if d.Method != "BTREE" {
		t.Fatalf("default method = %q, want BTREE", d.Method)
	}
	if err := s.AddAccessPath(&AccessPathDef{Name: "ap2", AtomType: "face", Attrs: []string{"square_dim", "face_id"}}); err != nil {
		t.Fatalf("AddAccessPath multi: %v", err)
	}
	d2, _ := s.AccessPath("ap2")
	if d2.Method != "GRID" {
		t.Fatalf("multi-attr default method = %q, want GRID", d2.Method)
	}
	// BTREE with 2 attrs is invalid.
	if err := s.AddAccessPath(&AccessPathDef{Name: "bad", AtomType: "face", Attrs: []string{"square_dim", "face_id"}, Method: "BTREE"}); err == nil {
		t.Fatal("BTREE over 2 attrs accepted")
	}
	// Unknown attribute.
	if err := s.AddAccessPath(&AccessPathDef{Name: "bad2", AtomType: "face", Attrs: []string{"nope"}}); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("unknown attr = %v, want ErrUnknownAttr", err)
	}

	if err := s.AddSortOrder(&SortOrderDef{Name: "so1", AtomType: "edge", Attrs: []string{"length"}}); err != nil {
		t.Fatalf("AddSortOrder: %v", err)
	}
	so := s.SortOrdersFor("edge")
	if len(so) != 1 || so[0].ID == 0 {
		t.Fatalf("SortOrdersFor = %+v", so)
	}

	if err := s.AddPartition(&PartitionDef{Name: "p1", AtomType: "solid", Attrs: []string{"solid_no", "description"}}); err != nil {
		t.Fatalf("AddPartition: %v", err)
	}
	if err := s.AddPartition(&PartitionDef{Name: "p1", AtomType: "solid", Attrs: []string{"solid_no"}}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate LDL name = %v, want ErrDuplicate", err)
	}

	cl := &ClusterDef{Name: "c1", Molecule: &MoleculeType{Root: &MolNode{
		AtomType: "brep",
		Children: []*MolNode{{AtomType: "face"}},
	}}}
	if err := s.AddCluster(cl); err != nil {
		t.Fatalf("AddCluster: %v", err)
	}
	if got := s.ClustersForRoot("brep"); len(got) != 1 {
		t.Fatalf("ClustersForRoot = %d", len(got))
	}
	if got := s.ClustersInvolving("face"); len(got) != 1 {
		t.Fatalf("ClustersInvolving = %d", len(got))
	}

	// Structure IDs are distinct across LDL kinds.
	p := s.PartitionsFor("solid")[0]
	if so[0].ID == p.ID || so[0].ID == cl.ID || p.ID == cl.ID {
		t.Fatalf("structure ids collide: so=%d part=%d cluster=%d", so[0].ID, p.ID, cl.ID)
	}

	// Drop.
	if _, err := s.DropLDL("so1"); err != nil {
		t.Fatalf("DropLDL: %v", err)
	}
	if _, err := s.DropLDL("so1"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("double DropLDL = %v", err)
	}
}

func TestDropAtomTypeGuards(t *testing.T) {
	s := solidSchema(t)
	// face is referenced by brep/edge/point.
	if err := s.DropAtomType("face"); !errors.Is(err, ErrInUse) {
		t.Fatalf("DropAtomType(face) = %v, want ErrInUse", err)
	}
	// An isolated type can be dropped.
	iso, _ := NewAtomType("iso", []Attribute{{Name: "id", Type: SpecIdent()}}, nil)
	s.AddAtomType(iso)
	if err := s.DropAtomType("iso"); err != nil {
		t.Fatalf("DropAtomType(iso): %v", err)
	}
	if err := s.DropAtomType("iso"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("double drop = %v, want ErrUnknownType", err)
	}
}

func TestSchemaPersistence(t *testing.T) {
	s := solidSchema(t)
	s.DefineMoleculeType(&MoleculeType{Name: "piece_list", Root: &MolNode{
		AtomType: "solid",
		Children: []*MolNode{{AtomType: "solid", Via: "sub", Recursive: true}},
	}})
	s.AddAccessPath(&AccessPathDef{Name: "ap", AtomType: "solid", Attrs: []string{"solid_no"}})
	s.AddSortOrder(&SortOrderDef{Name: "so", AtomType: "edge", Attrs: []string{"length"}, Desc: []bool{true}})
	s.AddPartition(&PartitionDef{Name: "pt", AtomType: "solid", Attrs: []string{"description"}})
	s.AddCluster(&ClusterDef{Name: "cl", Molecule: &MoleculeType{Root: &MolNode{
		AtomType: "brep", Children: []*MolNode{{AtomType: "face"}},
	}}})

	data, err := s.Save()
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	s2, err := Load(data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Types keep their IDs and structure.
	for _, name := range []string{"solid", "brep", "face", "edge", "point"} {
		a, ok1 := s.AtomType(name)
		b, ok2 := s2.AtomType(name)
		if !ok1 || !ok2 || a.ID != b.ID || len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("atom type %s did not survive persistence", name)
		}
	}
	m, ok := s2.MoleculeType("piece_list")
	if !ok || !m.IsRecursive() {
		t.Fatal("molecule type lost")
	}
	if _, ok := s2.AccessPath("ap"); !ok {
		t.Fatal("access path lost")
	}
	if len(s2.SortOrdersFor("edge")) != 1 || len(s2.PartitionsFor("solid")) != 1 || len(s2.Clusters()) != 1 {
		t.Fatal("LDL structures lost")
	}

	// New type IDs continue after the old ones.
	nt, _ := NewAtomType("extra", []Attribute{{Name: "id", Type: SpecIdent()}}, nil)
	if err := s2.AddAtomType(nt); err != nil {
		t.Fatalf("AddAtomType after load: %v", err)
	}
	if nt.ID <= 5 {
		t.Fatalf("reloaded schema reused TypeID %d", nt.ID)
	}

	// Corrupt JSON rejected.
	if _, err := Load(data[:len(data)/3]); err == nil {
		t.Fatal("truncated schema accepted")
	}
}
