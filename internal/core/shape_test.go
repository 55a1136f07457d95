package core_test

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/core"
	"prima/internal/mql"
	"prima/internal/race"
	"prima/internal/txn"
	"prima/internal/workload/brepgen"
)

// comparedLiteral matches a literal right of a comparison operator: the
// values a plan binds at open, never structure (quantifier counts,
// recursion levels, constructor elements).
var comparedLiteral = regexp.MustCompile(`((?:<>|<=|>=|=|<|>)\s*)(-?[0-9]+\.[0-9]+(?:E-?[0-9]+)?|-?[0-9]+|'[^']*'|@[0-9]+\.[0-9]+)`)

// sibling returns a statement of q's shape with every compared literal
// changed, its kind and sign kept.
func sibling(q string) string {
	return comparedLiteral.ReplaceAllStringFunc(q, func(m string) string {
		sub := comparedLiteral.FindStringSubmatch(m)
		op, lit := sub[1], sub[2]
		switch {
		case lit[0] == '\'':
			return op + lit[:len(lit)-1] + "~'"
		case lit[0] == '@':
			dot := strings.IndexByte(lit, '.')
			seq, _ := strconv.Atoi(lit[dot+1:])
			return fmt.Sprintf("%s%s.%d", op, lit[:dot], seq+1)
		case strings.ContainsAny(lit, ".E"):
			f, _ := strconv.ParseFloat(lit, 64)
			if f < 0 {
				f -= 0.25
			} else {
				f += 0.25
			}
			return op + strconv.FormatFloat(f, 'f', 2, 64)
		default:
			n, _ := strconv.Atoi(lit)
			if n < 0 {
				return op + strconv.Itoa(n-1)
			}
			return op + strconv.Itoa(n+1)
		}
	})
}

// shapeOf is the shape of a one-statement script.
func shapeOf(t testing.TB, q string) string {
	t.Helper()
	stmts, err := mql.Lex(q)
	if err != nil || len(stmts) != 1 {
		t.Fatalf("lex %q: %d statements, %v", q, len(stmts), err)
	}
	return string(stmts[0].Shape)
}

// TestShapeSibling pins the test's own literal mutator: same shape, other
// values.
func TestShapeSibling(t *testing.T) {
	for _, q := range []string{
		`SELECT ALL FROM brep WHERE brep_no = 2 AND edge.length > 0.5 AND x < -3 AND y >= -1.5`,
		`MODIFY face SET square_dim = 2.5 WHERE face_id = @3.14`,
		`SELECT ALL FROM solid WHERE description <> 'x' AND piece_list(0).solid_no = 4711`,
	} {
		s := sibling(q)
		if s == q || shapeOf(t, s) != shapeOf(t, q) {
			t.Fatalf("sibling %q of %q: same text or other shape", s, q)
		}
	}
}

// runScript runs a script and returns its results.
func runScript(t testing.TB, e *core.Engine, src string) []*core.Result {
	t.Helper()
	rs, err := e.ExecuteScript(src)
	if err != nil {
		t.Fatalf("ExecuteScript %q: %v", src, err)
	}
	return rs
}

// TestShapeVariants runs groups of statements — each group the literal
// variants of one shape, or the same statement spelled with literals of
// another kind — through the plan cache, and compares every result with
// fresh planning and with the reference model. The variants cover kind
// changes, direct roots, folded ranges, structural integers and negative
// numbers.
func TestShapeVariants(t *testing.T) {
	e, cubes := sceneEngine(t, 8)
	if _, _, err := brepgen.BuildAssembly(e, 4711, 3, 2); err != nil {
		t.Fatalf("BuildAssembly: %v", err)
	}
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
	b2, f3 := cubes[2].Brep, cubes[3].Faces[1]
	at := func(a addr.LogicalAddr) string { return fmt.Sprintf("@%d.%d", a.Type(), a.Seq()) }
	groups := [][]string{
		// Kind changes: one statement per kind, each its own shape.
		{`SELECT ALL FROM brep-face WHERE brep_no = 3`,
			`SELECT ALL FROM brep-face WHERE brep_no = 3.0`,
			`SELECT ALL FROM brep-face WHERE brep_no = '3'`,
			`SELECT ALL FROM brep-face WHERE brep_no = ` + at(b2)},
		// Direct roots, and a direct root of the wrong type.
		{`SELECT ALL FROM brep-face-edge-point WHERE brep_id = ` + at(b2),
			`SELECT ALL FROM brep-face-edge-point WHERE brep_id = ` + at(cubes[5].Brep),
			`SELECT ALL FROM brep-face-edge-point WHERE brep_id = ` + at(f3)},
		// Folded ranges: the bound is the tighter conjunct, whichever it is.
		{`SELECT ALL FROM brep WHERE brep_no > 3 AND brep_no > 5`,
			`SELECT ALL FROM brep WHERE brep_no > 5 AND brep_no > 3`,
			`SELECT ALL FROM brep WHERE brep_no > 1 AND brep_no > 1`,
			`SELECT ALL FROM brep WHERE brep_no >= 2 AND brep_no <= 4 AND brep_no < 3`,
			`SELECT ALL FROM brep WHERE brep_no >= 6 AND brep_no <= 7 AND brep_no < 9`},
		// Structural integers: each value its own plan.
		{`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (4) face: face.square_dim > 2.0`,
			`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (7) face: face.square_dim > 2.0`,
			`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_EXACTLY (12) edge: edge.length > 0.5`,
			`SELECT ALL FROM brep-face-edge-point WHERE EXISTS_EXACTLY (11) edge: edge.length > 0.5`,
			`SELECT ALL FROM piece_list WHERE piece_list(1).solid_no > 4711 AND piece_list(0).solid_no = 4711`,
			`SELECT ALL FROM piece_list WHERE piece_list(2).solid_no > 4711 AND piece_list(0).solid_no = 4711`},
		// Negative numbers, folded into the parameter; a negated zero keeps
		// its own shape.
		{`SELECT ALL FROM brep-face-edge-point WHERE point.placement.x_coord > -5.0 AND brep_no < 6`,
			`SELECT ALL FROM brep-face-edge-point WHERE point.placement.x_coord > 5.0 AND brep_no < 6`,
			`SELECT ALL FROM brep-face-edge-point WHERE point.placement.x_coord > -0.0 AND brep_no < -0`,
			`SELECT ALL FROM brep-face-edge-point WHERE point.placement.x_coord > 0.0 AND brep_no < 0`,
			`SELECT ALL FROM brep WHERE -3 < brep_no AND brep_no <= 2`},
		// Parameters in the residual predicate and in a qualified projection.
		{`SELECT edge, (point, face := SELECT face_id FROM face WHERE square_dim > 10.0) FROM brep-edge-(face, point) WHERE brep_no = 2 OR edge.length > 100.0`,
			`SELECT edge, (point, face := SELECT face_id FROM face WHERE square_dim > 0.5) FROM brep-edge-(face, point) WHERE brep_no = 4 OR edge.length > 1.0`},
	}
	for _, group := range groups {
		for _, q := range group {
			ref, err := e.ReferenceSelect(parseSelect(t, q))
			if err != nil {
				t.Fatalf("reference %s: %v", q, err)
			}
			want := renderSet(ref)
			if fresh := renderSet(mustQuery(t, e, q).Molecules); !slices.Equal(want, fresh) {
				t.Fatalf("%s: fresh planning disagrees with the reference", q)
			}
			// Twice through the cache: prepared (or served by a sibling's
			// plan), then served.
			for run := 0; run < 2; run++ {
				if have := renderSet(runScript(t, e, q)[0].Molecules); !slices.Equal(want, have) {
					t.Fatalf("%s (run %d): reference %d molecules, plan cache %d\nreference:\n%v\nplan cache:\n%v", q, run, len(want), len(have), want, have)
				}
				p, err := e.PlanQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				cur, err := p.Open()
				if err != nil {
					t.Fatal(err)
				}
				mols, err := cur.Collect()
				cur.Close()
				if err != nil || !slices.Equal(want, renderSet(mols)) {
					t.Fatalf("%s through PlanQuery (run %d): %d molecules, %v", q, run, len(mols), err)
				}
			}
		}
	}

	// Kinds are part of the shape; structural integers are not, but a
	// statement whose structural values differ is a miss.
	if shapeOf(t, groups[0][0]) == shapeOf(t, groups[0][1]) || shapeOf(t, groups[0][2]) == shapeOf(t, groups[0][3]) {
		t.Fatal("literals of different kinds share a shape")
	}
	if shapeOf(t, groups[4][2]) == shapeOf(t, groups[4][3]) {
		t.Fatal("-0 and 0 share a shape")
	}
	_, m0, _ := e.PlanCacheStats()
	runScript(t, e, `SELECT ALL FROM brep-face-edge-point WHERE EXISTS_AT_LEAST (5) face: face.square_dim > 2.0`)
	if _, m1, _ := e.PlanCacheStats(); m1 != m0+1 {
		t.Fatalf("a new structural value was served from another value's plan (misses %d -> %d)", m0, m1)
	}
}

// TestShapeScriptDML runs DELETE and MODIFY statements inside multi-statement
// scripts through the plan cache on one engine, and the same statements one
// by one on a twin whose plan cache is emptied before each, so every one is
// planned fresh, and compares the states the two reach after every script.
func TestShapeScriptDML(t *testing.T) {
	cached, cubes := sceneEngine(t, 6)
	fresh, _ := sceneEngine(t, 6)
	at := func(a addr.LogicalAddr) string { return fmt.Sprintf("@%d.%d", a.Type(), a.Seq()) }
	var scripts []string
	for i, c := range cubes[:4] {
		scripts = append(scripts, fmt.Sprintf(
			"MODIFY face SET square_dim = %d.5 WHERE face_id = %s;\n"+
				"MODIFY face SET square_dim = %d.5 WHERE face_id = %s;\n"+
				"SELECT ALL FROM brep-face WHERE brep_no = %d;\n"+
				"MODIFY solid SET description = 'rev %d', solid_no = %d WHERE solid_no = %d",
			10+i, at(c.Faces[0]), 20+i, at(c.Faces[1]), i+1, i, 100+i, i+1))
	}
	scripts = append(scripts,
		`DELETE FROM brep-face-edge-point WHERE brep_no = 5; DELETE FROM brep-face-edge-point WHERE brep_no = 6`,
		`DELETE FROM brep-face-edge-point WHERE brep_no = 4; MODIFY face SET square_dim = -1.5 WHERE square_dim > 20.0`,
		`DELETE FROM brep-face-edge-point WHERE brep_no = 3; MODIFY face SET square_dim = -2.5 WHERE square_dim > 10.0`)
	state := func(e *core.Engine) []string {
		var out []string
		// Atom by atom: set orders differ between twins built alike.
		for _, q := range []string{`SELECT ALL FROM solid`, `SELECT ALL FROM brep`, `SELECT ALL FROM face`, `SELECT ALL FROM edge`, `SELECT ALL FROM point`} {
			ref, err := e.ReferenceSelect(parseSelect(t, q))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, renderSet(ref)...)
		}
		return out
	}
	for _, script := range scripts {
		h0, _, _ := cached.PlanCacheStats()
		rs := runScript(t, cached, script)
		for i, q := range strings.Split(script, ";") {
			fresh.ResetPlanCache()
			r, err := fresh.ExecuteOne(q, fresh.System().Writer(0, nil))
			if err != nil {
				t.Fatal(err)
			}
			if h, m, _ := fresh.PlanCacheStats(); h != 0 || m != 1 {
				t.Fatalf("%s: statement %d was not planned fresh (%d hits, %d misses)", script, i+1, h, m)
			}
			if r.Count != rs[i].Count {
				t.Fatalf("%s: statement %d counts %d through the plan cache, %d planned fresh", script, i+1, rs[i].Count, r.Count)
			}
		}
		if have, want := state(cached), state(fresh); !slices.Equal(have, want) {
			t.Fatalf("after %q the plan-cache engine and the fresh engine disagree", script)
		}
		if h1, _, _ := cached.PlanCacheStats(); script == scripts[len(scripts)-1] && h1-h0 != 2 {
			t.Fatalf("last script: %d statements served from their shapes, want 2", h1-h0)
		}
	}
}

// TestShapeScriptDDL: a statement whose shape the cache holds is prepared
// afresh when DDL earlier in its own script changed the schema.
func TestShapeScriptDDL(t *testing.T) {
	e, _ := sceneEngine(t, 4)
	runScript(t, e, `SELECT ALL FROM brep WHERE brep_no = 2`)
	rs := runScript(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE;
		EXPLAIN SELECT ALL FROM brep WHERE brep_no = 3`)
	if out := rs[1].Message; !strings.Contains(out, "root access: accesspath bno key=3") {
		t.Fatalf("EXPLAIN after DDL in the same script shows a stale plan:\n%s", out)
	}
}

// TestShapeTrace: in a traced script, the statement that prepares a shape
// records a "plan" span marked as a miss, and a later statement of the
// shape, served from it, marks the trace plan_cache=hit.
func TestShapeTrace(t *testing.T) {
	e, cubes := sceneEngine(t, 2)
	f := cubes[1].Faces
	tr := e.System().Tracer().BeginForced("checkin")
	_, err := e.ExecuteScriptTraced(fmt.Sprintf(
		"MODIFY face SET square_dim = 1.5 WHERE face_id = @%d.%d; MODIFY face SET square_dim = 2.5 WHERE face_id = @%d.%d",
		f[0].Type(), f[0].Seq(), f[1].Type(), f[1].Seq()), tr, e.System().Writer(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Finish()
	if plan := snap.Find("plan"); plan == nil || plan.Attrs["plan_cache"] != "miss" {
		t.Fatalf("no plan span marked as a miss: %+v", plan)
	}
	if got := snap.Root.Attrs["plan_cache"]; got != "hit" {
		t.Fatalf("trace plan_cache = %q, want hit", got)
	}
}

// TestShapeBindConcurrent binds one shape from four goroutines, each with
// its own literals, while the others run theirs: every cursor must see its
// own cube (run under -race in CI).
func TestShapeBindConcurrent(t *testing.T) {
	e, _ := sceneEngine(t, 8)
	withProcs(t, 4)
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
	const q = `SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d AND edge.length > %d.0 AND brep_no < %d`
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cube := 1 + (g+i)%8
				p, err := e.PlanQuery(fmt.Sprintf(q, cube, i%2-1, cube+1))
				if err != nil {
					errs <- err
					return
				}
				cur, err := p.Open()
				if err != nil {
					errs <- err
					return
				}
				mols, err := cur.Collect()
				cur.Close()
				if err != nil {
					errs <- err
					return
				}
				if len(mols) != 1 || mols[0].Size() != brepgen.CubeAtoms {
					errs <- fmt.Errorf("cube %d: %d molecules", cube, len(mols))
					return
				}
				if v, _ := mols[0].Root.Value("brep_no"); v.I != int64(cube) {
					errs <- fmt.Errorf("asked for cube %d, got %d", cube, v.I)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAllocsColdCheckout: a point checkout through the bno access path
// with a new literal on every call — the pattern of the cold workload —
// through PlanQuery, Open and Collect. Lexing, the shape lookup and the
// bind cost 5 allocations, 16 in all; parsing and planning the statement
// afresh costs about 70 more.
func TestAllocsColdCheckout(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const cubes = 256
	e, _ := sceneEngine(t, cubes)
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
	e.System().SetAtomCacheSize(2 * cubes * brepgen.CubeAtoms) // every cube warm
	queries := make([]string, cubes)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i+1)
		mustQuery(t, e, queries[i])
	}
	next := 0
	checkout := func() {
		p, err := e.PlanQuery(queries[next%cubes])
		next++
		if err != nil {
			t.Fatal(err)
		}
		cur, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		mols, err := cur.Collect()
		cur.Close()
		if err != nil || len(mols) != 1 || mols[0].Size() != brepgen.CubeAtoms {
			t.Fatalf("checkout: %d molecules, %v", len(mols), err)
		}
	}
	const budget = 20.0
	if got := allocsPerRunAt(1, 200, checkout); got > budget {
		t.Errorf("point checkout with a new literal: %.0f allocs, budget %.0f", got, budget)
	}
}

// TestAllocsCheckinScript: a checkin — three MODIFY statements of one shape
// in one script, each a direct-address lookup — with new literals on every
// call. Each statement is served from its shape: no parse, no plan — 87
// allocations for the three, most of them the updates'; parsing the script
// and preparing each statement afresh costs about 100 more.
func TestAllocsCheckinScript(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, cubes := sceneEngine(t, 8)
	var scripts []string
	for rev := 0; rev < 64; rev++ {
		var b strings.Builder
		for _, f := range cubes[rev%8].Faces[:3] {
			fmt.Fprintf(&b, "MODIFY face SET square_dim = %d.5 WHERE face_id = @%d.%d;\n", rev, f.Type(), f.Seq())
		}
		scripts = append(scripts, b.String())
	}
	next := 0
	checkin := func() {
		rs, err := e.ExecuteScript(scripts[next%len(scripts)])
		next++
		if err != nil || len(rs) != 3 || rs[2].Count != 1 {
			t.Fatalf("checkin: %v", err)
		}
	}
	const budget = 95.0
	if got := allocsPerRunAt(1, 200, checkin); got > budget {
		t.Errorf("three-MODIFY checkin with new literals: %.0f allocs, budget %.0f", got, budget)
	}
}

// TestAllocsModifyOneAtom: the checkin statement shape — a MODIFY of one
// face through its address, a new literal on every call — run through
// ExecuteOne in autocommit with the log on: a set of one update with no
// partner, one log record and no commit mark, 33 allocations. The update's
// pre-image is the record image read after admission, never re-encoded.
func TestAllocsModifyOneAtom(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys, err := access.Open(access.Config{Dir: t.TempDir(), WAL: true, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	e := core.New(sys)
	if err := brepgen.InstallSchema(e); err != nil {
		t.Fatal(err)
	}
	cubes, err := brepgen.BuildScene(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := txn.NewManager(sys).Autocommit()
	var stmts []string
	for rev := 0; rev < 64; rev++ {
		f := cubes[rev%8].Faces[rev%brepgen.CubeFaces]
		stmts = append(stmts, fmt.Sprintf("MODIFY face SET square_dim = %d.5 WHERE face_id = @%d.%d", rev, f.Type(), f.Seq()))
	}
	next := 0
	modify := func() {
		r, err := e.ExecuteOne(stmts[next%len(stmts)], w)
		next++
		if err != nil || r.Count != 1 {
			t.Fatalf("modify: %v", err)
		}
	}
	before, _ := sys.WALStats()
	modify()
	if after, _ := sys.WALStats(); after.Appends-before.Appends != 1 {
		t.Fatalf("a one-atom MODIFY appended %d log records, want 1", after.Appends-before.Appends)
	}
	const budget = 34.0
	if got := allocsPerRunAt(1, 200, modify); got > budget {
		t.Errorf("one-atom MODIFY in autocommit: %.0f allocs, budget %.0f", got, budget)
	}
}
