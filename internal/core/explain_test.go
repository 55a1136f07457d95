package core_test

import (
	"fmt"
	"strings"
	"testing"

	"prima/internal/access"
	"prima/internal/core"
)

// explainEngine builds an engine with one atom type that can exercise every
// root access kind: an IDENTIFIER (direct), a B-tree path on serial
// (accesspath/pathrange), a grid path on x,y (gridrange), a sort order on
// grade (sortrange) and an unindexed attribute w (atomscan).
func explainEngine(t *testing.T) *core.Engine {
	t.Helper()
	sys, err := access.Open(access.Config{})
	if err != nil {
		t.Fatalf("access.Open: %v", err)
	}
	e := core.New(sys)
	for _, q := range []string{
		`CREATE ATOM_TYPE part (part_id: IDENTIFIER, serial: INTEGER, x: INTEGER, y: INTEGER, grade: INTEGER, w: INTEGER)`,
		`CREATE ACCESS PATH pserial ON part (serial) USING BTREE`,
		`CREATE ACCESS PATH pxy ON part (x, y) USING GRID`,
		`CREATE SORT ORDER pgrade ON part (grade)`,
	} {
		mustQuery(t, e, q)
	}
	for i := 1; i <= 8; i++ {
		mustQuery(t, e, fmt.Sprintf(
			`INSERT INTO part (serial, x, y, grade, w) VALUES (%d, %d, %d, %d, %d)`,
			i, i, i*2, i%4, i))
	}
	return e
}

// explain runs an EXPLAIN (or EXPLAIN ANALYZE) and returns the rendered text.
func explain(t *testing.T, e *core.Engine, q string) string {
	t.Helper()
	r := mustQuery(t, e, q)
	if r.Kind != "explain" {
		t.Fatalf("EXPLAIN result kind = %q, want explain", r.Kind)
	}
	return r.Message
}

// TestExplainAccessKinds pins the rendered root-access line for every access
// kind the planner can choose.
func TestExplainAccessKinds(t *testing.T) {
	e := explainEngine(t)
	ins := mustQuery(t, e, `INSERT INTO part (serial, x, y, grade, w) VALUES (99, 9, 9, 1, 9)`)
	root := ins.Inserted[0]

	cases := []struct {
		name  string
		query string
		want  []string
	}{
		{"direct", fmt.Sprintf(`EXPLAIN SELECT ALL FROM part WHERE part_id = @%d.%d`, root.Type(), root.Seq()),
			[]string{"root access: direct"}},
		{"accesspath", `EXPLAIN SELECT ALL FROM part WHERE serial = 5`,
			[]string{"root access: accesspath pserial key=5", "root ssa: serial = 5"}},
		{"pathrange", `EXPLAIN SELECT ALL FROM part WHERE serial >= 2 AND serial <= 5`,
			[]string{"root access: pathrange pserial range=[2, 5]"}},
		{"gridrange", `EXPLAIN SELECT ALL FROM part WHERE x >= 1 AND x <= 3 AND y >= 2 AND y <= 6`,
			[]string{"root access: gridrange pxy box=[1, 3]x[2, 6]"}},
		{"sortrange", `EXPLAIN SELECT ALL FROM part WHERE grade >= 1 AND grade <= 2`,
			[]string{"root access: sortrange pgrade range=[1, 2]"}},
		{"atomscan", `EXPLAIN SELECT ALL FROM part WHERE w > 3`,
			[]string{"root access: atomscan", "root ssa: w > 3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := explain(t, e, tc.query)
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
				}
			}
			if strings.Contains(out, "analyze:") {
				t.Errorf("plain EXPLAIN must not execute, but rendered an analyze section:\n%s", out)
			}
			if !strings.Contains(out, "cacheable: yes") {
				t.Errorf("EXPLAIN output missing cacheability line:\n%s", out)
			}
		})
	}
}

// TestExplainGolden pins the full rendering of one deterministic plan.
func TestExplainGolden(t *testing.T) {
	e := explainEngine(t)
	out := explain(t, e, `EXPLAIN SELECT ALL FROM part WHERE serial >= 2 AND serial <= 5 AND w > 1`)
	want := strings.Join([]string{
		"plan: molecule part (max depth 64)",
		"  root access: pathrange pserial range=[2, 5]",
		"  root ssa: serial >= 2 AND serial <= 5 AND w > 1",
		"  component part",
		"  residual predicate: ((serial >= 2 AND serial <= 5) AND w > 1)",
		"  cacheable: yes (plan cache, keyed by shape, schema version and recursion bound)",
		"  shape: SELECT ALL FROM part WHERE serial >= $1 AND serial <= $2 AND w > $3",
		"  params: $1=2 $2=5 $3=1",
	}, "\n")
	if out != want {
		t.Fatalf("EXPLAIN golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}

	// EXPLAIN shows the plan of the statement's shape with its own literals
	// bound, the shape, and the parameter values — also when the shape was
	// prepared for other literals.
	e.ResetPlanCache()
	if _, err := e.ExecuteScript(`SELECT ALL FROM part WHERE serial >= 1 AND serial <= 7 AND w > 4`); err != nil {
		t.Fatal(err)
	}
	rs, err := e.ExecuteScript(`EXPLAIN SELECT ALL FROM part WHERE serial >= 2 AND serial <= 5 AND w > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if out := rs[0].Message; out != want {
		t.Fatalf("EXPLAIN of a bound shape: golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestExplainMoleculeTree pins the component-tree rendering (multi-level
// molecule with pushed-down conjuncts).
func TestExplainMoleculeTree(t *testing.T) {
	e, _ := sceneEngine(t, 3)
	out := explain(t, e, `EXPLAIN SELECT ALL FROM brep-face-edge WHERE brep_no = 2 AND edge.length > 0.5`)
	for _, want := range []string{
		"plan: molecule brep (max depth",
		"component brep",
		"component face via faces",
		"component edge via border",
		"[pushed: length > 0.5]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeDifferential checks that EXPLAIN ANALYZE executes the
// query for real: its reported molecule count must equal the plain query's,
// and the analyze section must report the per-stage breakdown and counters.
func TestExplainAnalyzeDifferential(t *testing.T) {
	e, _ := sceneEngine(t, 5)
	q := `SELECT ALL FROM brep-face-edge-point WHERE brep_no <= 3`
	plain := mustQuery(t, e, q)
	if plain.Count == 0 {
		t.Fatalf("plain query returned no molecules")
	}
	r := mustQuery(t, e, `EXPLAIN ANALYZE `+q)
	if r.Count != plain.Count {
		t.Fatalf("EXPLAIN ANALYZE count = %d, plain query count = %d", r.Count, plain.Count)
	}
	var atoms int64
	for _, m := range plain.Molecules {
		atoms += int64(m.Size())
	}
	for _, want := range []string{
		"analyze:",
		"trace:",
		"parse:",
		"plan:",
		"assemble:",
		fmt.Sprintf("molecules=%d atoms=%d", plain.Count, atoms),
		"decode:",
		"atoms_decoded=",
		"hit_ratio=",
		"total:",
	} {
		if !strings.Contains(r.Message, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, r.Message)
		}
	}
}

// TestExplainRejectsNonSelect pins the parser error for non-SELECT targets.
func TestExplainRejectsNonSelect(t *testing.T) {
	e := explainEngine(t)
	_, err := e.ExecuteScript(`EXPLAIN INSERT INTO part (serial) VALUES (1)`)
	if err == nil || !strings.Contains(err.Error(), "EXPLAIN expects a SELECT") {
		t.Fatalf("EXPLAIN INSERT error = %v, want EXPLAIN-expects-SELECT", err)
	}
}
