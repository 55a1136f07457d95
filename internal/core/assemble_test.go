package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/core"
	"prima/internal/race"
	"prima/internal/workload/brepgen"
)

// The edge cases of molecule assembly, pinned by name. Every query also runs
// through checkAgainstReference, so the one-pass assembler and the reference
// assembler must agree on each — trees and wire frames — under every worker
// and cache setting.

// solids inserts solids 1..n and connects them over sub as the edges say
// (pairs of 1-based solid numbers, parent first).
func solids(t *testing.T, e *core.Engine, n int, edges ...[2]int) []addr.LogicalAddr {
	t.Helper()
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprintf("(%d)", i+1)
	}
	as := mustQuery(t, e, `INSERT INTO solid (solid_no) VALUES `+strings.Join(values, ", ")).Inserted
	for _, ed := range edges {
		if err := e.System().Connect(as[ed[0]-1], "sub", as[ed[1]-1]); err != nil {
			t.Fatalf("connect %d -> %d: %v", ed[0], ed[1], err)
		}
	}
	return as
}

func levelOf(t *testing.T, m *core.Molecule, a addr.LogicalAddr) int {
	t.Helper()
	for _, ma := range m.AtomsOf("solid") {
		if ma.Addr() == a {
			return ma.Level
		}
	}
	t.Fatalf("molecule has no atom %v", a)
	return 0
}

// TestAssembleTwoLanesFirstDepthFirstReach: an atom reachable over two lanes
// belongs to the molecule once, with the component role and the recursion
// level of its first depth-first reach — not of the breadth-first one the
// level-wise fetch meets first.
func TestAssembleTwoLanesFirstDepthFirstReach(t *testing.T) {
	e, _ := sceneEngine(t, 2)

	// Role. Every edge is reachable through its faces (a component with
	// points below it) and directly from the brep (a leaf component).
	// Breadth-first the direct lane is shorter; depth-first the lane listed
	// first wins.
	q := `SELECT ALL FROM brep-(face-edge-point, edge) WHERE brep_no = 1`
	m := mustQuery(t, e, q).Molecules[0]
	if n := len(m.AtomsOf("edge")); n != brepgen.CubeEdges {
		t.Fatalf("%d edge atoms, want each of the %d once", n, brepgen.CubeEdges)
	}
	if n := len(m.AtomsOf("point")); n != brepgen.CubePoints {
		t.Fatalf("%d points, want %d (reached below the face lane's edges)", n, brepgen.CubePoints)
	}
	direct := m.Root.Children[1]
	if len(direct) != brepgen.CubeEdges {
		t.Fatalf("direct lane lists %d edges, want %d", len(direct), brepgen.CubeEdges)
	}
	for _, ed := range direct {
		if ed.Node.Via != "border" || len(ed.Children) != 1 || len(ed.Children[0]) != 2 {
			t.Fatalf("edge %v reached via %q with children %v, want the face lane's role (via border, 2 boundary points)", ed.Addr(), ed.Node.Via, ed.Children)
		}
	}
	// The other way round the leaf role comes first, and no lane leads on to
	// the points.
	rev := `SELECT ALL FROM brep-(edge, face-edge-point) WHERE brep_no = 1`
	m = mustQuery(t, e, rev).Molecules[0]
	if edges, points := len(m.AtomsOf("edge")), len(m.AtomsOf("point")); edges != brepgen.CubeEdges || points != 0 {
		t.Fatalf("leaf lane first: %d edges and %d points, want %d and 0", edges, points, brepgen.CubeEdges)
	}

	checkAgainstReference(t, e, []string{q, rev})

	// Level. Solid 3 is a sub of 1 (level 1) and of 2, which is listed before
	// it in 1's sub set: depth-first it is first reached at level 2.
	e = newEngine(t)
	as := solids(t, e, 3, [2]int{1, 2}, [2]int{1, 3}, [2]int{2, 3})
	rec := `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 1`
	m = mustQuery(t, e, rec).Molecules[0]
	if l2, l3 := levelOf(t, m, as[1]), levelOf(t, m, as[2]); l2 != 1 || l3 != 2 {
		t.Fatalf("levels of solids 2 and 3 = %d and %d, want 1 and 2", l2, l3)
	}
	checkAgainstReference(t, e, []string{rec,
		`SELECT ALL FROM piece_list WHERE piece_list(2).solid_no = 3 AND piece_list(0).solid_no = 1`})
}

// TestAssemblePieceListCycle: a recursion cycle ends at the atom that closes
// it; every solid belongs to the molecule once, and the closing reference
// points back at the root.
func TestAssemblePieceListCycle(t *testing.T) {
	e := newEngine(t)
	as := solids(t, e, 3, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 1})
	q := `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 1`
	m := mustQuery(t, e, q).Molecules[0]
	if n := len(m.AtomsOf("solid")); n != 3 {
		t.Fatalf("cyclic molecule has %d solids, want 3", n)
	}
	last := m.AtomsOf("solid")[2]
	if last.Addr() != as[2] || last.Level != 2 || len(last.Children[0]) != 1 || last.Children[0][0] != m.Root {
		t.Fatalf("solid 3 = %v at level %d with subs %v, want %v at level 2 closing the cycle at the root", last.Addr(), last.Level, last.Children[0], as[2])
	}
	if s := m.String(); strings.Count(s, "(cycle)") != 1 || strings.Count(s, "\n") != 4 {
		t.Fatalf("rendered tree does not stop at the closing reference:\n%s", s)
	}
	checkAgainstReference(t, e, []string{q, `SELECT ALL FROM piece_list`})
}

// TestAssembleMaxDepthExceeded: a recursion deeper than the bound is an
// error, whatever path delivers the molecule; at the bound it is not.
func TestAssembleMaxDepthExceeded(t *testing.T) {
	e := newEngine(t)
	solids(t, e, 4, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4})
	q := `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 1`
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		e.SetMaxRecursionDepth(2)
		_, err := execOne(e, q)
		if !errors.Is(err, core.ErrSemantic) || !strings.Contains(err.Error(), "recursion deeper than 2") {
			t.Fatalf("workers=%d: depth 3 under bound 2: %v, want the recursion error", workers, err)
		}
		e.SetMaxRecursionDepth(3)
		if m := mustQuery(t, e, q).Molecules[0]; m.MaxLevel() != 3 || m.Size() != 4 {
			t.Fatalf("workers=%d: at the bound: %d atoms to level %d, want 4 to level 3", workers, m.Size(), m.MaxLevel())
		}
	}
}

// TestAssembleDanglingReference: a reference to an atom that is gone fails
// the molecule with the error the reference assembler reports — unless a
// pushed-down conjunct pruned the molecule before the level that holds the
// dangling reference was read: the pruned outcome is the query's answer.
func TestAssembleDanglingReference(t *testing.T) {
	e, cubes := sceneEngine(t, 1)
	cube := cubes[0]
	mol := `SELECT ALL FROM brep-face-edge-point WHERE `
	for _, tc := range []struct {
		name   string
		where  string
		lost   addr.LogicalAddr
		pruned bool
	}{
		{"lost point", `brep_no = 1`, cube.Points[3], false},
		{"lost edge", `brep_no = 1`, cube.Edges[5], false},
		{"lost point, satisfiable conjunct", `edge.length > 0.5`, cube.Points[3], false},
		// No edge is that long: the conjunct is decided false once the edge
		// level is in, and the point level is never read.
		{"lost point below a failed conjunct", `edge.length > 1000.0`, cube.Points[3], true},
		// The conjunct's own level cannot be read whole: pruning is off and
		// the build reports the reference.
		{"lost edge under its own conjunct", `edge.length > 1000.0`, cube.Edges[5], false},
	} {
		m, err, refErr := planFor(t, e, mol+tc.where).AssembleLosing(cube.Brep, tc.lost)
		if !errors.Is(refErr, access.ErrNoAtom) {
			t.Fatalf("%s: reference assembler: %v, want ErrNoAtom", tc.name, refErr)
		}
		if tc.pruned {
			if m != nil || err != nil {
				t.Fatalf("%s: got (%v, %v), want the molecule pruned without an error", tc.name, m, err)
			}
			continue
		}
		if err == nil || err.Error() != refErr.Error() || !errors.Is(err, access.ErrNoAtom) {
			t.Fatalf("%s: error %v, reference assembler reports %v", tc.name, err, refErr)
		}
	}
}

// TestAssembleDirectRootGone: an IDENTIFIER equality names its root outright;
// when that atom no longer exists the query has no molecule, not an error.
func TestAssembleDirectRootGone(t *testing.T) {
	e, cubes := sceneEngine(t, 2)
	q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_id = %v`, cubes[0].Brep)
	if p := planFor(t, e, q); p.AccessKind != "direct" {
		t.Fatalf("AccessKind = %s, want direct", p.AccessKind)
	}
	if n := len(mustQuery(t, e, q).Molecules); n != 1 {
		t.Fatalf("%d molecules before the delete, want 1", n)
	}
	if err := e.System().Delete(cubes[0].Brep); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		if r := mustQuery(t, e, q); len(r.Molecules) != 0 {
			t.Fatalf("workers=%d: %d molecules for a root that is gone, want 0", workers, len(r.Molecules))
		}
	}
}

// The allocation budgets of molecule construction: ceilings with room for
// toolchain drift and for the pipeline's per-worker set-up, far below what
// one allocation per atom would add (a cube is 27 atoms), so that
// `go test ./...` catches one coming back. Measured since the read path
// carries record images and a level is read where the assembler keeps it: 10
// per warm checkout inline (11 through an access path) and 27 when every
// cursor ran the two-worker pipeline (13 and 30 before); 4.2 per molecule of a scan inline and 6.4
// with two workers (8.2 and 10.3 before); 48 for a cube read cold with the
// cache off, 87 with it on (52 and 91 while every page fix allocated its
// handle).

// allocsPerRunAt is testing.AllocsPerRun at GOMAXPROCS procs, which a
// cursor derives its assembly width from; AllocsPerRun itself runs at
// GOMAXPROCS 1, where every cursor assembles inline.
func allocsPerRunAt(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestAllocsWarmCheckout: one cached plan, one cube found through the
// brep_no access path as every checkout of the bench workloads is, every
// atom in the atom cache, through Plan.Open and Collect. A cursor over one
// root assembles inline at any GOMAXPROCS, so the inline budget holds at 1,
// 2 and 4: the read-ahead pipeline coming back to point checkouts would
// break it.
func TestAllocsWarmCheckout(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, _ := sceneEngine(t, 4)
	mustQuery(t, e, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
	p := planFor(t, e, `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`)
	if p.AccessKind != "accesspath" {
		t.Fatalf("AccessKind = %s, want accesspath", p.AccessKind)
	}
	checkout := func() {
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
	for _, procs := range []int{1, 2, 4} {
		const budget = 20.0
		if got := allocsPerRunAt(procs, 200, checkout); got > budget {
			t.Errorf("GOMAXPROCS=%d: warm cube checkout: %.0f allocs, budget %.0f", procs, got, budget)
		}
	}
}

// TestAllocsMaterialization: the 60-cube scan, inline at GOMAXPROCS 1 and
// read ahead on four workers at GOMAXPROCS 4.
func TestAllocsMaterialization(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const cubes = 60
	e, _ := sceneEngine(t, cubes)
	p := planFor(t, e, `SELECT ALL FROM brep-face-edge-point`)
	scan := func() {
		cur, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		mols, err := cur.Collect()
		cur.Close()
		if err != nil || len(mols) != cubes {
			t.Fatalf("scan: %d molecules, %v", len(mols), err)
		}
	}
	for _, workers := range []int{1, 4} {
		budget := 7.0 * cubes
		if workers > 1 {
			budget = 10*cubes + 8*float64(workers)
		}
		if got := allocsPerRunAt(workers, 20, scan); got > budget {
			t.Errorf("workers=%d: %d-cube materialization: %.0f allocs, budget %.0f", workers, cubes, got, budget)
		}
	}
}

// TestAllocsColdBatch: reading one cube level by level through a snapshot
// when every atom misses the cache costs a handful of slices per level and
// one image copy per atom — with the cache on, the entry that keeps the image
// besides — and no Value: nothing is decoded on the way.
func TestAllocsColdBatch(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, cubes := sceneEngine(t, 4)
	c := cubes[1]
	levels := [][]addr.LogicalAddr{{c.Brep}, c.Faces, c.Edges, c.Points}
	sys := e.System()
	read := func() {
		sn := sys.OpenSnapshot()
		defer sn.Close()
		for _, level := range levels {
			recs, err := sn.GetBatch(level)
			if err != nil || len(recs) != len(level) {
				t.Fatalf("GetBatch: %d records, %v", len(recs), err)
			}
		}
	}
	// The result slice per level. Up to eight misses the read scratch stays on
	// the stack; a level wider than that (a cube's 12 edges) puts its miss
	// positions, RIDs, stamps and ReadBatch's two slices on the heap. A page
	// fix is none.
	const perLevel = 3
	sys.SetAtomCacheSize(-1)
	got := testing.AllocsPerRun(100, read)
	if budget := float64(brepgen.CubeAtoms + perLevel*len(levels)); got > budget {
		t.Errorf("cache off: %.0f allocs for a cold cube, budget %.0f", got, budget)
	}
	// With the cache on, each run starts from an empty cache; the least of a
	// few runs leaves out what the runtime allocated meanwhile.
	least := uint64(1 << 62)
	for run := 0; run < 5; run++ {
		sys.SetAtomCacheSize(1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if st := sys.AtomCacheStats(); st.Atoms != brepgen.CubeAtoms {
		t.Fatalf("%d atoms cached after a cold read of %d", st.Atoms, brepgen.CubeAtoms)
	}
	const mapGrowth = 16 // the shard maps of a fresh cache growing to hold the cube
	if budget := uint64(2*brepgen.CubeAtoms + perLevel*len(levels) + mapGrowth); least > budget {
		t.Errorf("cache on: %d allocs for a cold cube, budget %d", least, budget)
	}
}
