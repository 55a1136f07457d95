package brepgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
)

// adder adds one atom: AtomSet.Add, or System.Insert for a set of one.
type adder func(typeName string, values map[string]atom.Value) (addr.LogicalAddr, error)

// addAssembly adds two solids over existing ones: the first three solids
// become partners, one of them referenced by both new solids, and the
// second new solid references the first.
func addAssembly(add adder, no int, solids []addr.LogicalAddr) error {
	a, err := add("solid", map[string]atom.Value{
		"solid_no": atom.Int(int64(no)),
		"sub":      atom.RefSet(solids[0], solids[1]),
	})
	if err != nil {
		return err
	}
	_, err = add("solid", map[string]atom.Value{
		"solid_no": atom.Int(int64(no + 1)),
		"sub":      atom.RefSet(solids[1], solids[2], a),
	})
	return err
}

// TestSetBuiltSceneMatchesOneByOne is the differential test of the set
// insert: a scene built one cube set at a time, plus an assembly set over
// existing solids, has the same atoms with the same values as the scene
// built from sets of one (System.Insert), and both pass CheckIntegrity.
func TestSetBuiltSceneMatchesOneByOne(t *testing.T) {
	const n = 20
	bySet, byOne := newEngine(t), newEngine(t)
	cubes, err := BuildScene(bySet, n)
	if err != nil {
		t.Fatal(err)
	}
	set := bySet.System().NewAtomSet()
	solids := []addr.LogicalAddr{cubes[0].Solid, cubes[1].Solid, cubes[2].Solid}
	if err := addAssembly(set.Add, 1000, solids); err != nil {
		t.Fatal(err)
	}
	if err := bySet.System().WriteSet(set); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := cubeAtoms(byOne.System().Insert, i, i, float64(i)*10, 1+float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := addAssembly(byOne.System().Insert, 1000, solids); err != nil {
		t.Fatal(err)
	}

	x, y := bySet.System(), byOne.System()
	for _, typ := range x.Schema().AtomTypes() {
		var xs, ys []addr.LogicalAddr
		x.Directory().Scan(typ.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool { xs = append(xs, a); return true })
		y.Directory().Scan(typ.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool { ys = append(ys, a); return true })
		if fmt.Sprint(xs) != fmt.Sprint(ys) {
			t.Fatalf("%s: set-built addresses %v, one by one %v", typ.Name, xs, ys)
		}
		for _, a := range xs {
			xa, err := x.Get(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			ya, err := y.Get(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range xa.Values {
				if !xa.Values[i].Equal(ya.Values[i]) {
					t.Fatalf("%s %v.%s: set-built %v, one by one %v", typ.Name, a, typ.Attrs[i].Name, xa.Values[i], ya.Values[i])
				}
			}
		}
	}
	for name, sys := range map[string]*access.System{"set-built": x, "one by one": y} {
		if err := sys.CheckIntegrity(""); err != nil {
			t.Fatalf("%s scene: %v", name, err)
		}
	}
}

// TestCubeSetAppendsOneRecordPerAtom: a cube is one set, so each of its 28
// atoms is one log record, back-references included, and the set's commit
// mark is one more. A DELETE of the cube's brep molecule is one set too: its
// 27 deletes, the one update of the solid that loses its brep, and the
// commit mark.
func TestCubeSetAppendsOneRecordPerAtom(t *testing.T) {
	sys, err := access.Open(access.Config{Dir: t.TempDir(), WAL: true, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	e := core.New(sys)
	if err := InstallSchema(e); err != nil {
		t.Fatal(err)
	}
	before, _ := sys.WALStats()
	if _, err := BuildCube(e, 1, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	after, _ := sys.WALStats()
	if got, want := after.Appends-before.Appends, uint64(CubeAtoms+1)+1; got != want {
		t.Fatalf("a cube appended %d log records, want %d inserts and a commit mark", got, want-1)
	}
	before = after
	if _, err := e.ExecuteScript(`DELETE FROM brep-face-edge-point WHERE brep_no = 1`); err != nil {
		t.Fatal(err)
	}
	after, _ = sys.WALStats()
	if got, want := after.Appends-before.Appends, uint64(CubeAtoms+1+1); got != want {
		t.Fatalf("a cube DELETE appended %d log records, want %d deletes, the solid's update and a commit mark", got, CubeAtoms)
	}
}

// checkSnapshot reads the atoms a fresh snapshot shows, among the newest
// `recent` addresses of each type (all for 0), and fails on a reference to
// an atom the snapshot does not show or whose back-reference it does not
// show, on a brep without its whole cube, or on a face, edge or point
// without its brep.
func checkSnapshot(sys *access.System, recent uint64) error {
	sn := sys.OpenSnapshot()
	defer sn.Close()
	for _, typ := range []string{"solid", "brep", "face", "edge", "point"} {
		top, err := sn.MaxSeq(typ)
		if err != nil {
			return err
		}
		first := uint64(0)
		if recent > 0 && top > recent {
			first = top - recent
		}
		for after := first; ; {
			as, err := sn.ScanAddrsAfter(typ, after, 256)
			if err != nil {
				return err
			}
			if len(as) == 0 {
				break
			}
			after = as[len(as)-1].Seq()
			for _, a := range as {
				if !sn.Exists(a) {
					continue
				}
				rec, err := sn.Get(a)
				if err != nil {
					return fmt.Errorf("%s %v exists at the snapshot but reads: %w", typ, a, err)
				}
				at := rec.Decode()
				for _, i := range at.Type.RefAttrs() {
					_, back, _ := at.Type.Attrs[i].Type.RefTarget()
					for target := range at.Values[i].AllRefs() {
						if !sn.Exists(target) {
							return fmt.Errorf("%s %v.%s references %v, which the snapshot does not show", typ, a, at.Type.Attrs[i].Name, target)
						}
						partner, err := sn.Get(target)
						if err != nil {
							return err
						}
						if v, _ := partner.Value(back); !v.ContainsRef(a) {
							return fmt.Errorf("%s %v.%s references %v, whose %s the snapshot shows as %v", typ, a, at.Type.Attrs[i].Name, target, back, v)
						}
					}
				}
				switch typ {
				case "solid":
					continue
				case "face", "edge", "point":
					if v, _ := at.Value("brep"); v.A.IsZero() {
						return fmt.Errorf("%s %v has no brep", typ, a)
					}
					continue
				}
				faces, _ := at.Value("faces")
				edges, _ := at.Value("edges")
				points, _ := at.Value("points")
				solid, _ := at.Value("solid")
				if len(faces.E) != CubeFaces || len(edges.E) != CubeEdges || len(points.E) != CubePoints || solid.A.IsZero() {
					return fmt.Errorf("brep %v shows %d faces, %d edges, %d points and solid %v", a, len(faces.E), len(edges.E), len(points.E), solid)
				}
			}
		}
	}
	return nil
}

// TestSnapshotsSeeWholeSets runs snapshot readers beside a loop of cube sets
// and of assembly sets that update existing solids, and then beside DELETE
// statements of cubes: no reader ever sees a partial cube or a reference to
// an atom it cannot see. The readers check the newest atoms only, so that
// they open many snapshots while sets are in flight.
func TestSnapshotsSeeWholeSets(t *testing.T) {
	e := newEngine(t)
	sys := e.System()
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var passes atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := checkSnapshot(sys, 40); err != nil {
					errs <- err
					return
				}
				passes.Add(1)
			}
		}()
	}
	var solids []addr.LogicalAddr
	for i := 1; i <= 150; i++ {
		c, err := BuildCube(e, i, i, float64(i)*10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if solids = append(solids, c.Solid); len(solids) < 3 {
			continue
		}
		set := sys.NewAtomSet()
		if err := addAssembly(set.Add, 1000+2*i, solids[len(solids)-3:]); err != nil {
			t.Fatal(err)
		}
		if err := sys.WriteSet(set); err != nil {
			t.Fatal(err)
		}
	}
	for i := 150; i > 100; i -= 2 {
		r, err := e.ExecuteScript(fmt.Sprintf(`DELETE FROM brep-face-edge-point WHERE brep_no = %d`, i))
		if err != nil {
			t.Fatal(err)
		}
		if r[0].Count != CubeAtoms {
			t.Fatalf("cube %d: DELETE deleted %d atoms, want %d", i, r[0].Count, CubeAtoms)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if passes.Load() == 0 {
		t.Fatal("no snapshot reader finished a pass beside the writer")
	}
	if err := checkSnapshot(sys, 0); err != nil {
		t.Fatal(err)
	}
}
