package core_test

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"prima/internal/access"
	"prima/internal/core"
	"prima/internal/mql"
	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

// parseSelect parses a single SELECT.
func parseSelect(t testing.TB, q string) *mql.Select {
	t.Helper()
	stmts, err := mql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var sel *mql.Select
	if len(stmts) == 1 {
		sel, _ = stmts[0].(*mql.Select)
	}
	if sel == nil {
		t.Fatalf("%q is not a SELECT", q)
	}
	return sel
}

// planFor prepares a plan for a single SELECT without executing it.
func planFor(t testing.TB, e *core.Engine, q string) *core.Plan {
	t.Helper()
	p, err := e.PlanQuery(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return p
}

func TestExtractRootSSANormalization(t *testing.T) {
	e := newEngine(t)

	// Literal-on-the-left comparisons flip the operator.
	p := planFor(t, e, `SELECT ALL FROM brep WHERE 5 > brep_no`)
	if len(p.RootSSA) != 1 || p.RootSSA[0].Attr != "brep_no" || p.RootSSA[0].Op != access.OpLT {
		t.Fatalf("5 > brep_no: RootSSA = %+v, want brep_no OpLT 5", p.RootSSA)
	}
	p = planFor(t, e, `SELECT ALL FROM brep WHERE 5 = brep_no`)
	if len(p.RootSSA) != 1 || p.RootSSA[0].Op != access.OpEQ {
		t.Fatalf("5 = brep_no: RootSSA = %+v, want OpEQ", p.RootSSA)
	}
	p = planFor(t, e, `SELECT ALL FROM brep WHERE 5 <= brep_no`)
	if len(p.RootSSA) != 1 || p.RootSSA[0].Op != access.OpGE {
		t.Fatalf("5 <= brep_no: RootSSA = %+v, want OpGE", p.RootSSA)
	}

	// = EMPTY / <> EMPTY become the emptiness operators.
	p = planFor(t, e, `SELECT ALL FROM solid WHERE sub = EMPTY`)
	if len(p.RootSSA) != 1 || p.RootSSA[0].Attr != "sub" || p.RootSSA[0].Op != access.OpEmpty {
		t.Fatalf("sub = EMPTY: RootSSA = %+v, want OpEmpty", p.RootSSA)
	}
	p = planFor(t, e, `SELECT ALL FROM solid WHERE sub <> EMPTY`)
	if len(p.RootSSA) != 1 || p.RootSSA[0].Op != access.OpNotEmpty {
		t.Fatalf("sub <> EMPTY: RootSSA = %+v, want OpNotEmpty", p.RootSSA)
	}

	// Level-0 seed qualifications restrict the root; deeper levels do not.
	p = planFor(t, e, `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`)
	if len(p.RootSSA) != 1 || p.RootSSA[0].Attr != "solid_no" || p.RootSSA[0].Op != access.OpEQ {
		t.Fatalf("piece_list(0): RootSSA = %+v, want solid_no OpEQ", p.RootSSA)
	}
	p = planFor(t, e, `SELECT ALL FROM piece_list WHERE piece_list(1).solid_no = 4711`)
	if len(p.RootSSA) != 0 {
		t.Fatalf("piece_list(1): RootSSA = %+v, want empty", p.RootSSA)
	}

	// Non-root conjuncts never reach the root SSA.
	p = planFor(t, e, `SELECT ALL FROM brep-face-edge-point WHERE edge.length > 1.0`)
	if len(p.RootSSA) != 0 {
		t.Fatalf("edge.length: RootSSA = %+v, want empty", p.RootSSA)
	}
}

func TestRangeAccessPathSelection(t *testing.T) {
	e, _ := sceneEngine(t, 20)
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)

	p := planFor(t, e, `SELECT ALL FROM brep-face-edge-point WHERE brep_no > 5 AND brep_no <= 12`)
	if p.AccessKind != "pathrange" || p.PathName != "bno" {
		t.Fatalf("AccessKind = %s (path %s), want pathrange via bno", p.AccessKind, p.PathName)
	}
	if p.PathStart == nil || p.PathStart.I != 5 || p.PathStop == nil || p.PathStop.I != 12 {
		t.Fatalf("bounds = [%v, %v], want [5, 12]", p.PathStart, p.PathStop)
	}

	// Equality still wins over the range path.
	p = planFor(t, e, `SELECT ALL FROM brep WHERE brep_no = 7 AND brep_no > 2`)
	if p.AccessKind != "accesspath" {
		t.Fatalf("AccessKind = %s, want accesspath for equality", p.AccessKind)
	}

	// The strict lower bound is a superset; RootSSA must still filter it.
	r := mustQuery(t, e, `SELECT ALL FROM brep-face-edge-point WHERE brep_no > 5 AND brep_no <= 12`)
	if len(r.Molecules) != 7 {
		t.Fatalf("range query returned %d molecules, want 7", len(r.Molecules))
	}
}

func TestSortOrderRangeSelection(t *testing.T) {
	e, _ := sceneEngine(t, 20)
	mustQuery(t, e, `CREATE SORT ORDER sno ON solid (solid_no)`)

	p := planFor(t, e, `SELECT ALL FROM solid WHERE solid_no >= 4 AND solid_no < 9`)
	if p.AccessKind != "sortrange" || p.SortOrder != "sno" {
		t.Fatalf("AccessKind = %s (sort order %s), want sortrange via sno", p.AccessKind, p.SortOrder)
	}
	r := mustQuery(t, e, `SELECT ALL FROM solid WHERE solid_no >= 4 AND solid_no < 9`)
	if len(r.Molecules) != 5 {
		t.Fatalf("sortrange query returned %d molecules, want 5", len(r.Molecules))
	}
}

func TestComponentPushdownExtraction(t *testing.T) {
	e := newEngine(t)
	mol := `SELECT ALL FROM brep-face-edge-point WHERE `

	// Bare non-root comparisons and explicit EXISTS are pushed.
	p := planFor(t, e, mol+`edge.length > 1.0 AND brep_no = 3`)
	if len(p.CompSSA) != 1 || p.CompSSA[0].TypeName != "edge" {
		t.Fatalf("CompSSA = %+v, want one edge conjunct", p.CompSSA)
	}
	if p.CompSSA[0].SSA[0].Op != access.OpGT {
		t.Fatalf("CompSSA op = %v, want OpGT", p.CompSSA[0].SSA[0].Op)
	}
	p = planFor(t, e, mol+`EXISTS edge: 1.0 < edge.length`)
	if len(p.CompSSA) != 1 || p.CompSSA[0].TypeName != "edge" || p.CompSSA[0].SSA[0].Op != access.OpGT {
		t.Fatalf("EXISTS: CompSSA = %+v, want edge OpGT (normalized)", p.CompSSA)
	}

	// EXISTS_AT_LEAST is pushed count-aware: the conjunct carries its
	// threshold so assembly can prune once the count cannot be reached.
	p = planFor(t, e, mol+`EXISTS_AT_LEAST (2) edge: edge.length > 1.0`)
	if len(p.CompSSA) != 1 || p.CompSSA[0].TypeName != "edge" || p.CompSSA[0].Min != 2 {
		t.Fatalf("EXISTS_AT_LEAST: CompSSA = %+v, want edge conjunct with Min 2", p.CompSSA)
	}

	// Pushdown stays conservative: non-monotone quantifiers, OR trees,
	// RECORD field paths and cross-type EXISTS conditions are not pushed.
	for _, where := range []string{
		`FOR_ALL edge: edge.length > 1.0`,
		`EXISTS_EXACTLY (12) edge: edge.length > 1.0`,
		`edge.length > 1.0 OR brep_no = 3`,
		`point.placement.x_coord > 1.0`,
		`EXISTS edge: face.square_dim > 1.0`,
		`NOT (edge.length > 1.0)`,
	} {
		p := planFor(t, e, mol+where)
		if len(p.CompSSA) != 0 {
			t.Fatalf("%s: CompSSA = %+v, want empty", where, p.CompSSA)
		}
	}
}

func TestPushdownPruneSemantics(t *testing.T) {
	e, _ := sceneEngine(t, 14)
	// Edge lengths are 1+size variants in [1, 7]; 1000.0 is unsatisfiable.
	cases := []struct {
		q    string
		want int
	}{
		{`SELECT ALL FROM brep-face-edge-point WHERE edge.length > 1000.0`, 0},
		{`SELECT ALL FROM brep-face-edge-point WHERE EXISTS edge: edge.length > 1000.0`, 0},
		{`SELECT ALL FROM brep-face-edge-point WHERE edge.length > 5.5`, 4},
		{`SELECT ALL FROM brep-face-edge-point WHERE FOR_ALL edge: edge.length > 5.5`, 4},
	}
	var corpus []string
	for _, tc := range cases {
		if r := mustQuery(t, e, tc.q); len(r.Molecules) != tc.want {
			t.Fatalf("%s: %d molecules, want %d", tc.q, len(r.Molecules), tc.want)
		}
		corpus = append(corpus, tc.q)
	}
	checkAgainstReference(t, e, corpus)
}

// renderSet renders a molecule multiset order-independently.
func renderSet(mols []*core.Molecule) []string {
	out := make([]string, 0, len(mols))
	for _, m := range mols {
		out = append(out, m.String())
	}
	sort.Strings(out)
	return out
}

// wireBytes encodes a molecule multiset order-independently: sorted by root
// address, as the frames of one checkout stream. Unlike the rendered tree the
// frames cover the flat per-type view — its order, the hidden connectors it
// skips, every attribute value reference attributes included.
func wireBytes(t *testing.T, mols []*core.Molecule) []byte {
	t.Helper()
	sorted := slices.Clone(mols)
	slices.SortFunc(sorted, func(a, b *core.Molecule) int { return cmp.Compare(a.Root.Addr(), b.Root.Addr()) })
	stream, err := wire.EncodeMolecules(sorted)
	if err != nil {
		t.Fatalf("encode molecules: %v", err)
	}
	return stream
}

// checkAgainstReference requires the engine to answer every corpus query
// with the molecule multiset the reference model (reference_test.go)
// computes from the unrestricted molecule set — the same rendered trees and
// byte-identical wire frames from the one-pass assembler and the reference
// assembler — inline and read ahead (GOMAXPROCS 1 and 4), with the atom
// cache on and off.
func checkAgainstReference(t *testing.T, e *core.Engine, corpus []string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer e.System().SetAtomCacheSize(access.DefaultAtomCacheAtoms)
	for _, q := range corpus {
		ref, err := e.ReferenceSelect(parseSelect(t, q))
		if err != nil {
			t.Fatalf("reference %s: %v", q, err)
		}
		want, wantWire := renderSet(ref), wireBytes(t, ref)
		for _, workers := range []int{1, 4} {
			for _, cache := range []int{access.DefaultAtomCacheAtoms, 0} {
				runtime.GOMAXPROCS(workers)
				e.System().SetAtomCacheSize(cache)
				mols := mustQuery(t, e, q).Molecules
				have := renderSet(mols)
				if len(want) != len(have) {
					t.Fatalf("workers=%d cache=%d %s: reference %d molecules, engine %d", workers, cache, q, len(want), len(have))
				}
				for i := range want {
					if want[i] != have[i] {
						t.Fatalf("workers=%d cache=%d %s: molecule %d differs\nreference:\n%s\nengine:\n%s", workers, cache, q, i, want[i], have[i])
					}
				}
				if haveWire := wireBytes(t, mols); !bytes.Equal(wantWire, haveWire) {
					t.Fatalf("workers=%d cache=%d %s: wire frames differ (%d vs %d bytes) though the rendered trees agree", workers, cache, q, len(wantWire), len(haveWire))
				}
				// The statement once more, served from the plan of its
				// shape prepared for a sibling's literals, its own bound.
				if _, err := e.ExecuteScript(sibling(q)); err != nil {
					t.Fatalf("sibling of %s: %v", q, err)
				}
				h0, _, _ := e.PlanCacheStats()
				rs, err := e.ExecuteScript(q)
				if err != nil {
					t.Fatalf("%s from its shape: %v", q, err)
				}
				if h1, _, _ := e.PlanCacheStats(); h1 != h0+1 {
					t.Fatalf("%s: not served from the shape its sibling %s prepared", q, sibling(q))
				}
				if have := renderSet(rs[0].Molecules); !slices.Equal(want, have) {
					t.Fatalf("workers=%d cache=%d %s from its shape: reference %d molecules, engine %d\nreference:\n%v\nengine:\n%v", workers, cache, q, len(want), len(have), want, have)
				}
			}
		}
	}
}

// TestDifferentialCompiledPipeline runs a query corpus through the engine
// and the reference model and asserts identical result sets — the
// semantics-preservation gate for the whole compiled pipeline (predicate
// compilation, component pushdown, range access selection).
func TestDifferentialCompiledPipeline(t *testing.T) {
	e, _ := sceneEngine(t, 12)
	if _, _, err := brepgen.BuildAssembly(e, 4711, 3, 2); err != nil {
		t.Fatalf("BuildAssembly: %v", err)
	}
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
	mustQuery(t, e, `CREATE SORT ORDER sno ON solid (solid_no)`)

	checkAgainstReference(t, e, []string{
		`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3`,
		`SELECT ALL FROM brep-face-edge-point WHERE brep_no > 3 AND brep_no <= 7`,
		`SELECT ALL FROM brep-face-edge-point WHERE 5 > brep_no`,
		`SELECT ALL FROM brep-face-edge-point WHERE edge.length > 5.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE edge.length > 5.5 AND brep_no < 9`,
		`SELECT ALL FROM brep-face-edge-point WHERE edge.length > 1000.0`,
		`SELECT ALL FROM brep-face-edge-point WHERE FOR_ALL edge: edge.length > 0.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (4) face: face.square_dim > 2.0`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_EXACTLY (12) edge: edge.length > 0.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE EXISTS edge: edge.length > 6.5`,
		`SELECT ALL FROM brep-face-edge-point WHERE NOT (brep_no = 3)`,
		`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2 OR edge.length > 100.0`,
		`SELECT ALL FROM brep-face-edge-point WHERE point.placement.x_coord > 50.0 AND brep_no < 9`,
		`SELECT edge, (point, face := SELECT face_id FROM face WHERE square_dim > 10.0)
		   FROM brep-edge-(face, point) WHERE brep_no = 2`,
		`SELECT solid_no, description FROM solid WHERE sub = EMPTY`,
		`SELECT ALL FROM solid WHERE sub <> EMPTY`,
		`SELECT ALL FROM solid WHERE solid_no >= 4 AND solid_no < 9`,
		`SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`,
		`SELECT ALL FROM piece_list WHERE piece_list(1).solid_no > 4711 AND piece_list(0).solid_no = 4711`,
	})
}

func TestPlanCache(t *testing.T) {
	e, _ := sceneEngine(t, 4)
	q := `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`

	h0, _, _ := e.PlanCacheStats()
	for i := 0; i < 3; i++ {
		r, err := e.ExecuteScript(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != 1 || len(r[0].Molecules) != 1 {
			t.Fatalf("run %d: unexpected result %+v", i, r)
		}
	}
	h1, _, size := e.PlanCacheStats()
	if h1-h0 != 2 {
		t.Fatalf("plan cache hits = %d, want 2", h1-h0)
	}
	if size == 0 {
		t.Fatal("plan cache is empty after caching a SELECT")
	}

	// DDL bumps the schema version; the stale plan must not be reused.
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
	p, err := e.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.AccessKind != "accesspath" {
		t.Fatalf("after DDL: AccessKind = %s, want accesspath (stale cached plan reused?)", p.AccessKind)
	}

	// The recursion bound shapes the plan, so it is part of the key, too.
	e.SetMaxRecursionDepth(7)
	p2, err := e.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p || p2.MaxDepth != 7 {
		t.Fatalf("depth change returned the plan cached under the old bound (MaxDepth %d)", p2.MaxDepth)
	}
	e.SetMaxRecursionDepth(64)
}

// TestPlanCacheConcurrentCursors opens concurrent cursors over one shared
// cached plan — the sharing contract of the cache (exercised under -race).
func TestPlanCacheConcurrentCursors(t *testing.T) {
	e, _ := sceneEngine(t, 8)
	withProcs(t, 4) // read-ahead pipeline + pushdown + compiled eval
	q := `SELECT ALL FROM brep-face-edge-point WHERE edge.length > 1.5 AND brep_no > 1`
	p, err := e.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := p.Open()
			if err != nil {
				errs <- err
				return
			}
			defer cur.Close()
			mols, err := cur.Collect()
			if err != nil {
				errs <- err
				return
			}
			if len(mols) != 6 {
				errs <- fmt.Errorf("got %d molecules, want 6", len(mols))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEvalQuantBindingRestore pins quantifier scoping in both evaluators:
// nested quantifiers over the same variable must shadow and restore (the
// reference interpreter reuses one binding map, the compiler one slot scope).
func TestEvalQuantBindingRestore(t *testing.T) {
	e, _ := sceneEngine(t, 3)
	// The outer binding must be intact after the inner quantifier ran.
	q := `SELECT ALL FROM brep-face-edge-point
	      WHERE EXISTS edge: (EXISTS edge: edge.length > 0.5) AND edge.length > 0.5`
	ref, err := e.ReferenceSelect(parseSelect(t, q))
	if err != nil {
		t.Fatal(err)
	}
	if r := mustQuery(t, e, q); len(ref) != 3 || len(r.Molecules) != 3 {
		t.Fatalf("nested same-var quantifier: reference %d, engine %d molecules, want 3", len(ref), len(r.Molecules))
	}
}

// TestQualifiedProjectionCompiled checks the compiled qualified-projection
// predicate path against the reference.
func TestQualifiedProjectionCompiled(t *testing.T) {
	e, _ := sceneEngine(t, 6)
	checkAgainstReference(t, e, []string{
		`SELECT edge, (point, face := SELECT face_id, square_dim FROM face WHERE square_dim > 10.0)
	      FROM brep-edge-(face, point) WHERE brep_no = 4`,
	})
}
