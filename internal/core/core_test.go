package core_test

import (
	"fmt"
	"strings"
	"testing"

	"prima/internal/access"
	"prima/internal/core"
	"prima/internal/mql"
	"prima/internal/workload/brepgen"
)

// newEngine builds an in-memory engine with the Fig. 2.3 schema installed.
func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	sys, err := access.Open(access.Config{})
	if err != nil {
		t.Fatalf("access.Open: %v", err)
	}
	e := core.New(sys)
	if err := brepgen.InstallSchema(e); err != nil {
		t.Fatalf("InstallSchema: %v", err)
	}
	return e
}

// sceneEngine also populates n cubes.
func sceneEngine(t testing.TB, n int) (*core.Engine, []*brepgen.Cube) {
	t.Helper()
	e := newEngine(t)
	cubes, err := brepgen.BuildScene(e, n)
	if err != nil {
		t.Fatalf("BuildScene: %v", err)
	}
	return e, cubes
}

// execOne runs one statement through the script path, writing without a
// transaction.
func execOne(e *core.Engine, q string) (*core.Result, error) {
	return e.ExecuteOne(q, e.System().Writer(0, nil))
}

func mustQuery(t testing.TB, e *core.Engine, q string) *core.Result {
	t.Helper()
	r, err := execOne(e, q)
	if err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	return r
}

func TestTable21aVerticalAccess(t *testing.T) {
	e, _ := sceneEngine(t, 5)
	r := mustQuery(t, e, `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3`)
	if len(r.Molecules) != 1 {
		t.Fatalf("got %d molecules, want 1", len(r.Molecules))
	}
	m := r.Molecules[0]
	if got := len(m.AtomsOf("brep")); got != 1 {
		t.Fatalf("breps = %d", got)
	}
	if got := len(m.AtomsOf("face")); got != brepgen.CubeFaces {
		t.Fatalf("faces = %d, want %d", got, brepgen.CubeFaces)
	}
	if got := len(m.AtomsOf("edge")); got != brepgen.CubeEdges {
		t.Fatalf("edges = %d, want %d (shared edges must be deduplicated)", got, brepgen.CubeEdges)
	}
	if got := len(m.AtomsOf("point")); got != brepgen.CubePoints {
		t.Fatalf("points = %d, want %d", got, brepgen.CubePoints)
	}
	if m.Size() != brepgen.CubeAtoms {
		t.Fatalf("molecule size = %d, want %d", m.Size(), brepgen.CubeAtoms)
	}

	// Unqualified query returns all 5 molecules in system-defined order.
	r = mustQuery(t, e, `SELECT ALL FROM brep-face-edge-point`)
	if len(r.Molecules) != 5 {
		t.Fatalf("got %d molecules, want 5", len(r.Molecules))
	}
}

func TestTable21bRecursiveMolecules(t *testing.T) {
	e := newEngine(t)
	// depth 3, branching 2: 1 + 2 + 4 + 8 = 15 solids.
	root, count, err := brepgen.BuildAssembly(e, 4711, 3, 2)
	if err != nil {
		t.Fatalf("BuildAssembly: %v", err)
	}
	if count != 15 {
		t.Fatalf("assembly count = %d", count)
	}
	_ = root

	r := mustQuery(t, e, `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`)
	if len(r.Molecules) != 1 {
		t.Fatalf("got %d molecules, want 1 (seed qualification)", len(r.Molecules))
	}
	m := r.Molecules[0]
	if got := len(m.AtomsOf("solid")); got != 15 {
		t.Fatalf("molecule solids = %d, want 15", got)
	}
	if m.MaxLevel() != 3 {
		t.Fatalf("max level = %d, want 3", m.MaxLevel())
	}

	// Without the seed qualification every solid roots a molecule.
	r = mustQuery(t, e, `SELECT ALL FROM piece_list`)
	if len(r.Molecules) != 15 {
		t.Fatalf("unseeded recursion: %d molecules, want 15", len(r.Molecules))
	}
}

func TestRecursionCycleSafety(t *testing.T) {
	e := newEngine(t)
	sys := e.System()
	// Build a cycle: s1 -> s2 -> s3 -> s1 through sub.
	res := mustQuery(t, e, `INSERT INTO solid (solid_no) VALUES (1), (2), (3)`)
	a1, a2, a3 := res.Inserted[0], res.Inserted[1], res.Inserted[2]
	if err := sys.Connect(a1, "sub", a2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Connect(a2, "sub", a3); err != nil {
		t.Fatal(err)
	}
	if err := sys.Connect(a3, "sub", a1); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, e, `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 1`)
	if len(r.Molecules) != 1 {
		t.Fatalf("molecules = %d", len(r.Molecules))
	}
	if got := len(r.Molecules[0].AtomsOf("solid")); got != 3 {
		t.Fatalf("cyclic molecule solids = %d, want 3 (each once)", got)
	}
}

func TestTable21cHorizontalAccess(t *testing.T) {
	e := newEngine(t)
	if _, _, err := brepgen.BuildAssembly(e, 100, 2, 2); err != nil {
		t.Fatal(err)
	}
	// 1 root + 2 mid + 4 leaves; leaves have sub = EMPTY.
	r := mustQuery(t, e, `SELECT solid_no, description FROM solid WHERE sub = EMPTY`)
	if len(r.Molecules) != 4 {
		t.Fatalf("primitive solids = %d, want 4", len(r.Molecules))
	}
	// Projection: solid_no and description present, others NULL.
	m := r.Molecules[0]
	s := m.Root
	if v, _ := s.Value("solid_no"); v.IsNull() {
		t.Fatal("projected attribute solid_no missing")
	}
	if v, _ := s.Value("description"); v.IsNull() {
		t.Fatal("projected attribute description missing")
	}
	if v, _ := s.Value("super"); !v.IsNull() && v.Len() != 0 {
		t.Fatalf("unprojected attribute super kept: %v", v)
	}
}

func TestTable21dBranchingQuantifierQualifiedProjection(t *testing.T) {
	e, cubes := sceneEngine(t, 4)
	_ = cubes
	// Cube i has edge length 1+(i%7) and face area (1+(i%7))^2: cube 3 has
	// length 4, area 16. Pick thresholds so qualification bites.
	q := `
	  SELECT edge, (point,
	         face := SELECT face_id, square_dim
	                 FROM face
	                 WHERE square_dim > 10.0)
	  FROM brep-edge-(face, point)
	  WHERE brep_no = 3
	  AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0`
	r := mustQuery(t, e, q)
	if len(r.Molecules) != 1 {
		t.Fatalf("molecules = %d, want 1", len(r.Molecules))
	}
	m := r.Molecules[0]
	// brep is not in the SELECT list: hidden connector.
	for _, ma := range m.AtomsOf("brep") {
		if !ma.Hidden {
			t.Fatal("unmentioned brep atom not hidden")
		}
	}
	// Edges and points kept whole.
	for _, ma := range m.AtomsOf("edge") {
		if ma.Hidden {
			t.Fatal("edge hidden despite projection")
		}
	}
	// Faces: square_dim = 16 > 10 → kept with projected attrs.
	kept := 0
	for _, ma := range m.AtomsOf("face") {
		if !ma.Hidden {
			kept++
			if v, _ := ma.Value("square_dim"); v.IsNull() {
				t.Fatal("qualified projection lost square_dim")
			}
			if v, _ := ma.Value("border"); !v.IsNull() && v.Len() != 0 {
				t.Fatal("qualified projection kept unselected attribute")
			}
		}
	}
	if kept != brepgen.CubeFaces {
		t.Fatalf("faces kept = %d, want all %d (area 16 > 10)", kept, brepgen.CubeFaces)
	}

	// Tighten the qualified projection so no face passes.
	q2 := strings.Replace(q, "> 10.0", "> 1000.0", 1)
	r = mustQuery(t, e, q2)
	for _, ma := range r.Molecules[0].AtomsOf("face") {
		if !ma.Hidden {
			t.Fatal("face survived impossible qualified projection")
		}
	}

	// Quantifier that cannot be satisfied: EXISTS_AT_LEAST(13) of 12 edges.
	q3 := strings.Replace(q, "EXISTS_AT_LEAST (2)", "EXISTS_AT_LEAST (13)", 1)
	r = mustQuery(t, e, q3)
	if len(r.Molecules) != 0 {
		t.Fatalf("unsatisfiable quantifier returned %d molecules", len(r.Molecules))
	}
}

func TestQuantifierForms(t *testing.T) {
	e, _ := sceneEngine(t, 1)
	cases := []struct {
		where string
		want  int
	}{
		{`EXISTS edge: edge.length > 0.5`, 1},
		{`FOR_ALL edge: edge.length > 0.5`, 1},
		{`FOR_ALL edge: edge.length > 100.0`, 0},
		{`EXISTS_EXACTLY (12) edge: edge.length > 0.5`, 1},
		{`EXISTS_EXACTLY (11) edge: edge.length > 0.5`, 0},
		{`NOT EXISTS edge: edge.length > 100.0`, 1},
	}
	for _, c := range cases {
		r := mustQuery(t, e, `SELECT ALL FROM brep-edge WHERE `+c.where)
		if len(r.Molecules) != c.want {
			t.Errorf("WHERE %s: got %d molecules, want %d", c.where, len(r.Molecules), c.want)
		}
	}
}

func TestRecordFieldPathPredicate(t *testing.T) {
	e, _ := sceneEngine(t, 2)
	// Cube 1 occupies [10,11+] on every axis; cube 2 is at [20,...].
	r := mustQuery(t, e, `SELECT ALL FROM brep-point WHERE point.placement.x_coord > 15.0`)
	if len(r.Molecules) != 1 {
		t.Fatalf("record-field predicate matched %d molecules, want 1", len(r.Molecules))
	}
}

func TestOptimizerDirectRootAccess(t *testing.T) {
	e, _ := sceneEngine(t, 5)
	r := mustQuery(t, e, `SELECT ALL FROM brep WHERE brep_no = 3`)
	if len(r.Molecules) != 1 {
		t.Fatalf("setup query matched %d molecules, want 1", len(r.Molecules))
	}
	root := r.Molecules[0].AtomsOf("brep")[0]
	a := root.Addr()
	lit := fmt.Sprintf("@%d.%d", a.Type(), a.Seq())

	// Equality on the IDENTIFIER attribute plans a direct access — no scan,
	// no index — and still assembles the full molecule.
	q := `SELECT ALL FROM brep-face WHERE brep_id = ` + lit
	plan, err := e.PlanQuery(q)
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	if plan.AccessKind != "direct" || plan.DirectRoot != a {
		t.Fatalf("plan chose %s/%v, want direct/%v", plan.AccessKind, plan.DirectRoot, a)
	}
	r2, err := execOne(e, q)
	if err != nil {
		t.Fatalf("ExecuteOne: %v", err)
	}
	if len(r2.Molecules) != 1 || len(r2.Molecules[0].AtomsOf("face")) != 6 {
		t.Fatalf("direct query result wrong: %d molecules", len(r2.Molecules))
	}

	// A never-allocated address fails qualification silently, not with an
	// error — the direct root is the one candidate not enumerated from
	// live storage.
	ghost := fmt.Sprintf("@%d.%d", a.Type(), a.Seq()+1_000_000)
	r3 := mustQuery(t, e, `SELECT ALL FROM brep WHERE brep_id = `+ghost)
	if len(r3.Molecules) != 0 {
		t.Fatalf("ghost address matched %d molecules, want 0", len(r3.Molecules))
	}

	// An address of a different atom type can never be a brep's IDENTIFIER.
	face := r2.Molecules[0].AtomsOf("face")[0]
	wrong := fmt.Sprintf("@%d.%d", face.Addr().Type(), face.Addr().Seq())
	r4 := mustQuery(t, e, `SELECT ALL FROM brep WHERE brep_id = `+wrong)
	if len(r4.Molecules) != 0 {
		t.Fatalf("wrong-type address matched %d molecules, want 0", len(r4.Molecules))
	}
}

func TestOptimizerChoosesAccessPath(t *testing.T) {
	e, _ := sceneEngine(t, 10)
	mustQuery(t, e, `CREATE ACCESS PATH brep_no_idx ON brep (brep_no) USING BTREE`)

	q := `SELECT ALL FROM brep-face WHERE brep_no = 7`
	plan, err := e.PlanQuery(q)
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	if plan.AccessKind != "accesspath" || plan.PathName != "brep_no_idx" {
		t.Fatalf("plan chose %s/%s, want accesspath/brep_no_idx", plan.AccessKind, plan.PathName)
	}
	roots, err := plan.Roots()
	if err != nil || len(roots) != 1 {
		t.Fatalf("access path roots = %v, %v", roots, err)
	}
	// Result identical to the scan-based plan.
	r, err := execOne(e, q)
	if err != nil {
		t.Fatalf("ExecuteOne: %v", err)
	}
	if len(r.Molecules) != 1 || len(r.Molecules[0].AtomsOf("face")) != 6 {
		t.Fatalf("indexed query result wrong: %d molecules", len(r.Molecules))
	}
}

func TestOptimizerChoosesCluster(t *testing.T) {
	e, _ := sceneEngine(t, 4)
	mustQuery(t, e, `CREATE ATOM_CLUSTER brep_cl ON brep-face-edge-point`)

	q := `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`
	plan, err := e.PlanQuery(q)
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	if plan.AccessKind != "cluster" || plan.Cluster != "brep_cl" {
		t.Fatalf("plan chose %s, want cluster brep_cl", plan.AccessKind)
	}
	r, err := execOne(e, q)
	if err != nil {
		t.Fatalf("ExecuteOne: %v", err)
	}
	if len(r.Molecules) != 1 || r.Molecules[0].Size() != brepgen.CubeAtoms {
		t.Fatalf("cluster-based query wrong: %d molecules", len(r.Molecules))
	}
	// A sub-structure query is also covered by the cluster.
	plan2, err := e.PlanQuery(`SELECT ALL FROM brep-face`)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.AccessKind != "cluster" {
		t.Fatalf("sub-structure plan chose %s, want cluster", plan2.AccessKind)
	}
	// But a different root is not.
	plan3, err := e.PlanQuery(`SELECT ALL FROM face-edge`)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.AccessKind == "cluster" {
		t.Fatal("face-rooted plan must not use a brep-rooted cluster")
	}
}

func TestDMLThroughEngine(t *testing.T) {
	e := newEngine(t)
	r := mustQuery(t, e, `INSERT INTO solid (solid_no, description) VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	if r.Count != 3 {
		t.Fatalf("inserted %d", r.Count)
	}
	a1, a2 := r.Inserted[0], r.Inserted[1]

	// CONNECT via MQL address literals.
	con := "CONNECT @" + trimAt(a1.String()) + " TO @" + trimAt(a2.String()) + " VIA sub"
	mustQuery(t, e, con)
	rq := mustQuery(t, e, `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 1`)
	if len(rq.Molecules) != 1 || len(rq.Molecules[0].AtomsOf("solid")) != 2 {
		t.Fatalf("connect failed: %+v", rq.Molecules)
	}

	// MODIFY.
	r = mustQuery(t, e, `MODIFY solid SET description = 'updated' WHERE solid_no = 2`)
	if r.Count != 1 {
		t.Fatalf("modified %d", r.Count)
	}
	rq = mustQuery(t, e, `SELECT ALL FROM solid WHERE description = 'updated'`)
	if len(rq.Molecules) != 1 {
		t.Fatalf("modify not visible: %d", len(rq.Molecules))
	}

	// DISCONNECT.
	dis := "DISCONNECT @" + trimAt(a1.String()) + " FROM @" + trimAt(a2.String()) + " VIA sub"
	mustQuery(t, e, dis)
	rq = mustQuery(t, e, `SELECT ALL FROM solid WHERE sub = EMPTY`)
	if len(rq.Molecules) != 3 {
		t.Fatalf("disconnect failed: %d solids with empty sub", len(rq.Molecules))
	}

	// DELETE with predicate.
	r = mustQuery(t, e, `DELETE FROM solid WHERE solid_no = 3`)
	if r.Count != 1 {
		t.Fatalf("deleted %d", r.Count)
	}
	rq = mustQuery(t, e, `SELECT ALL FROM solid`)
	if len(rq.Molecules) != 2 {
		t.Fatalf("%d solids after delete", len(rq.Molecules))
	}
}

// trimAt strips the leading '@' from addr.String for literal reassembly.
func trimAt(s string) string { return strings.TrimPrefix(s, "@") }

func TestMoleculeDeleteRemovesComponents(t *testing.T) {
	e, _ := sceneEngine(t, 3)
	r := mustQuery(t, e, `DELETE FROM brep-face-edge-point WHERE brep_no = 2`)
	if r.Count != brepgen.CubeAtoms {
		t.Fatalf("deleted %d atoms, want %d", r.Count, brepgen.CubeAtoms)
	}
	rq := mustQuery(t, e, `SELECT ALL FROM brep-face-edge-point`)
	if len(rq.Molecules) != 2 {
		t.Fatalf("%d molecules after delete", len(rq.Molecules))
	}
	// Solids survive (not part of the deleted molecule type), but their
	// brep refs were auto-disconnected.
	rq = mustQuery(t, e, `SELECT ALL FROM solid WHERE brep = NULL`)
	if len(rq.Molecules) != 1 {
		t.Fatalf("%d solids lost their brep, want 1", len(rq.Molecules))
	}
}

func TestSemanticErrors(t *testing.T) {
	e, _ := sceneEngine(t, 1)
	bad := []string{
		`SELECT ALL FROM ghost`,
		`SELECT ALL FROM brep-ghost`,
		`SELECT nope FROM solid`,
		`SELECT ALL FROM brep-face WHERE ghost_attr = 1`,
		`SELECT ALL FROM brep-face WHERE EXISTS point: point.face = EMPTY`, // point not in molecule
		`SELECT face FROM solid`,                                           // face not a component
		`INSERT INTO ghost (a) VALUES (1)`,
		`MODIFY solid SET ghost = 1 WHERE solid_no = 1`,
	}
	for _, q := range bad {
		if _, err := mql.Parse(q); err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := execOne(e, q); err == nil {
			t.Errorf("ExecuteOne(%q) succeeded, want error", q)
		}
	}
}

func TestCursorOneMoleculeAtATime(t *testing.T) {
	e, _ := sceneEngine(t, 6)
	plan, err := e.PlanQuery(`SELECT ALL FROM brep-face WHERE brep_no >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := plan.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for {
		m, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("cursor delivered %d molecules, want 4", n)
	}
	// After exhaustion Next stays nil.
	if m, err := cur.Next(); m != nil || err != nil {
		t.Fatal("exhausted cursor returned data")
	}
}

func TestCheckIntegrityStatement(t *testing.T) {
	e, _ := sceneEngine(t, 1)
	mustQuery(t, e, `CHECK INTEGRITY brep`)

	// A brep with too few faces (cardinality (4,VAR)) fails the check.
	if _, err := e.System().Insert("brep", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := execOne(e, `CHECK INTEGRITY brep`); err == nil {
		t.Fatal("cardinality violation not detected")
	}
}
