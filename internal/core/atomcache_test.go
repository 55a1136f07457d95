package core_test

import (
	"testing"

	"prima/internal/access"
	"prima/internal/core"
	"prima/internal/workload/brepgen"
	"prima/internal/workload/mapgen"
)

// TestDifferentialAtomCache runs a query corpus with the atom cache
// enabled against the same corpus with the cache force-disabled and asserts
// identical result sets — after a warm-up pass and a burst of DML, so the
// comparison exercises invalidation, not just cold decodes.
func TestDifferentialAtomCache(t *testing.T) {
	e, _ := sceneEngine(t, 12)
	if _, _, err := brepgen.BuildAssembly(e, 4711, 3, 2); err != nil {
		t.Fatalf("BuildAssembly: %v", err)
	}
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
	mustQuery(t, e, `CREATE SORT ORDER sno ON solid (solid_no)`)

	corpus := []string{
		`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3`,
		`SELECT ALL FROM brep-face-edge-point WHERE brep_no > 3 AND brep_no <= 7`,
		`SELECT ALL FROM brep-face-edge-point WHERE edge.length > 5.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (4) face: face.square_dim > 2.0`,
		`SELECT ALL FROM brep-face-edge-point WHERE FOR_ALL edge: edge.length > 0.5`,
		`SELECT edge, (point, face := SELECT face_id FROM face WHERE square_dim > 10.0)
		   FROM brep-edge-(face, point) WHERE brep_no = 2`,
		`SELECT solid_no, description FROM solid WHERE sub = EMPTY`,
		`SELECT ALL FROM solid WHERE solid_no >= 4 AND solid_no < 9`,
		`SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`,
	}

	// Warm the cache, then mutate through every DML path so the enabled run
	// serves a mix of re-decoded and invalidated atoms.
	for _, q := range corpus {
		mustQuery(t, e, q)
	}
	mustQuery(t, e, `MODIFY solid SET description = 'differential' WHERE solid_no = 5`)
	mustQuery(t, e, `MODIFY face SET square_dim = 99.5 WHERE face_id = 3`)
	mustQuery(t, e, `DELETE FROM brep-face-edge-point WHERE brep_no = 11`)

	enabled := make([][]string, len(corpus))
	for i, q := range corpus {
		enabled[i] = renderSet(mustQuery(t, e, q).Molecules)
	}
	if st := e.System().AtomCacheStats(); st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("corpus did not exercise the cache: %+v", st)
	}

	e.System().SetAtomCacheSize(0)
	for i, q := range corpus {
		disabled := renderSet(mustQuery(t, e, q).Molecules)
		if len(disabled) != len(enabled[i]) {
			t.Fatalf("%s: cache-on %d molecules, cache-off %d", q, len(enabled[i]), len(disabled))
		}
		for j := range disabled {
			if disabled[j] != enabled[i][j] {
				t.Fatalf("%s: molecule %d differs\ncache-on:\n%s\ncache-off:\n%s", q, j, enabled[i][j], disabled[j])
			}
		}
	}
}

// TestExistsAtLeastPushdownSemantics pins the count-aware pushdown: results
// match the reference at, below and above the threshold.
func TestExistsAtLeastPushdownSemantics(t *testing.T) {
	e, _ := sceneEngine(t, 14)
	// Every cube has 12 edges with lengths 1+size in [1, 7].
	checkAgainstReference(t, e, []string{
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (2) edge: edge.length > 5.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (12) edge: edge.length > 0.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (13) edge: edge.length > 0.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (1) edge: edge.length > 1000.0`,
	})
}

// gridEngine builds an engine over the mapgen world with a two-dimensional
// grid access path on site (x, y).
func gridEngine(t *testing.T) *core.Engine {
	t.Helper()
	sys, err := access.Open(access.Config{})
	if err != nil {
		t.Fatalf("access.Open: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	e := core.New(sys)
	if _, err := e.ExecuteScript(mapgen.SchemaDDL); err != nil {
		t.Fatalf("schema: %v", err)
	}
	if _, err := mapgen.Build(e, 2, 4, 60, 7); err != nil {
		t.Fatalf("mapgen.Build: %v", err)
	}
	mustQuery(t, e, `CREATE ACCESS PATH xy ON site (x, y) USING GRID`)
	return e
}

// TestGridRangeSelection covers the multi-attribute GRID access choice:
// range conjuncts on any subset of the grid's attributes select a
// "gridrange" access, and the results match the reference.
func TestGridRangeSelection(t *testing.T) {
	e := gridEngine(t)

	// Both dimensions bounded.
	q := `SELECT ALL FROM site WHERE x >= 25.0 AND x <= 75.0 AND y > 10.0 AND y < 90.0`
	p := planFor(t, e, q)
	if p.AccessKind != "gridrange" || p.PathName != "xy" {
		t.Fatalf("AccessKind = %s (path %s), want gridrange via xy", p.AccessKind, p.PathName)
	}
	if len(p.PathRanges) != 2 || p.PathRanges[0].Start == nil || p.PathRanges[1].Stop == nil {
		t.Fatalf("PathRanges = %+v, want two bounded dimensions", p.PathRanges)
	}

	// One bounded dimension still beats the full scan; the other stays open.
	p = planFor(t, e, `SELECT ALL FROM site WHERE y > 50.0`)
	if p.AccessKind != "gridrange" {
		t.Fatalf("single-dimension AccessKind = %s, want gridrange", p.AccessKind)
	}
	if p.PathRanges[0].Start != nil || p.PathRanges[0].Stop != nil {
		t.Fatalf("unbounded x dimension got bounds %+v", p.PathRanges[0])
	}

	// Equality on one dimension folds into a closed range.
	p = planFor(t, e, `SELECT ALL FROM site WHERE pop = 3 AND x >= 10.0`)
	if p.AccessKind != "gridrange" {
		t.Fatalf("eq+range AccessKind = %s, want gridrange", p.AccessKind)
	}

	// No bounded grid attribute: the grid offers nothing.
	p = planFor(t, e, `SELECT ALL FROM site WHERE pop > 2`)
	if p.AccessKind != "atomscan" {
		t.Fatalf("unbounded AccessKind = %s, want atomscan", p.AccessKind)
	}

	// Differential: gridrange vs. the reference over the unrestricted set.
	checkAgainstReference(t, e, []string{
		q,
		`SELECT ALL FROM site WHERE y > 50.0`,
		`SELECT ALL FROM site WHERE x > 90.0 AND x < 10.0`, // empty box
		`SELECT name FROM site WHERE x >= 25.0 AND x < 30.0 AND pop > 2`,
	})
}

// TestDMLPlanCache covers prepared DELETE/MODIFY statements in the engine
// plan cache, including schema-version invalidation.
func TestDMLPlanCache(t *testing.T) {
	e, _ := sceneEngine(t, 6)

	run := func(src string) *core.Result {
		t.Helper()
		rs, err := e.ExecuteScript(src)
		if err != nil {
			t.Fatalf("ExecuteScript %q: %v", src, err)
		}
		if len(rs) != 1 {
			t.Fatalf("%q: %d results, want 1", src, len(rs))
		}
		return rs[0]
	}

	h0, m0, _ := e.PlanCacheStats()

	mod := `MODIFY solid SET description = 'cached' WHERE solid_no = 3`
	if r := run(mod); r.Count != 1 {
		t.Fatalf("first MODIFY count = %d, want 1", r.Count)
	}
	h1, m1, _ := e.PlanCacheStats()
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("first MODIFY: hits %d->%d misses %d->%d, want one fresh miss", h0, h1, m0, m1)
	}
	if r := run(mod); r.Count != 1 {
		t.Fatalf("cached MODIFY count = %d, want 1", r.Count)
	}
	h2, m2, _ := e.PlanCacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("repeated MODIFY: hits %d->%d misses %d->%d, want one hit", h1, h2, m1, m2)
	}
	// The cached statement really applied its SET values.
	r := mustQuery(t, e, `SELECT description FROM solid WHERE solid_no = 3`)
	if len(r.Molecules) != 1 {
		t.Fatalf("solid_no = 3: %d molecules", len(r.Molecules))
	}
	if v, _ := r.Molecules[0].Root.Value("description"); v.S != "cached" {
		t.Fatalf("description = %v, want 'cached'", v)
	}
	h2, m2, _ = e.PlanCacheStats() // the SELECT is a statement of its own shape

	del := `DELETE FROM brep-face-edge-point WHERE brep_no = 5`
	if r := run(del); r.Count == 0 {
		t.Fatalf("first DELETE deleted nothing")
	}
	if r := run(del); r.Count != 0 {
		t.Fatalf("repeated DELETE deleted %d atoms, want 0 (already gone)", r.Count)
	}
	h3, m3, _ := e.PlanCacheStats()
	if h3 != h2+1 || m3 != m2+1 {
		t.Fatalf("DELETE pair: hits %d->%d misses %d->%d, want one miss + one hit", h2, h3, m2, m3)
	}

	// DDL bumps the schema version: the same text must re-plan.
	run(`CREATE ATOM_TYPE cache_probe (id: IDENTIFIER, n: INTEGER)`)
	run(mod)
	h4, m4, _ := e.PlanCacheStats()
	if h4 != h3 || m4 != m3+1 {
		t.Fatalf("post-DDL MODIFY: hits %d->%d misses %d->%d, want a miss (schema version invalidation)", h3, h4, m3, m4)
	}
}

// TestDMLPlanCacheConcurrent shares one cached MODIFY plan across concurrent
// executors (the -race suite for cachedDML immutability).
func TestDMLPlanCacheConcurrent(t *testing.T) {
	e, _ := sceneEngine(t, 4)
	mod := `MODIFY solid SET description = 'x' WHERE solid_no = 2`
	if _, err := e.ExecuteScript(mod); err != nil {
		t.Fatalf("prime: %v", err)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			var err error
			for k := 0; k < 20 && err == nil; k++ {
				_, err = e.ExecuteScript(mod)
			}
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent cached MODIFY: %v", err)
		}
	}
}
