package brepgen

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"prima/internal/access"
	"prima/internal/core"
	"prima/internal/storage/device"
)

// crashCubes is the number of cubes the crash workload loads, each as one
// unscoped atom set; crashDeletes are the cubes it then deletes, each with
// one DELETE statement of its solid's molecule.
const crashCubes = 8

var crashDeletes = []int{3, 6}

// crashConfig is the configuration the cube crash test runs under: no
// background checkpoints and a buffer that holds the workload, so the only
// device writes between the base state and the crash are the log's, and
// recovery replays every durable set from the base state.
func crashConfig(dir string, wrap func(string, device.Device) device.Device) access.Config {
	return access.Config{Dir: dir, WAL: true, WALCheckpointBytes: -1, FileWrap: wrap}
}

// setupCrashCubes creates a database directory holding the Fig. 2.3 schema
// and a cluster on brep_obj.
func setupCrashCubes(t *testing.T, dir string) {
	t.Helper()
	sys, err := access.Open(crashConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(sys).ExecuteScript(SchemaDDL + `CREATE ATOM_CLUSTER cube_cl ON brep-face-edge-point;`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// loadCubes loads crashCubes cubes and deletes crashDeletes with every
// device volatile and plan armed, forcing the log after each statement, and
// stops at the crash. A crash at a torn log write leaves a durable log that
// ends inside a cube's set. It returns the device writes the plan counted
// before the first DELETE.
func loadCubes(t *testing.T, dir string, plan *device.CrashPlan) (loadWrites int) {
	t.Helper()
	sys, err := access.Open(crashConfig(dir, func(name string, d device.Device) device.Device {
		fd := device.NewFault(d)
		fd.SetVolatile(true)
		fd.SetPlan(plan, strings.HasPrefix(name, "wal_"))
		return fd
	}))
	if err != nil {
		if plan.Crashed() {
			return 0
		}
		t.Fatal(err)
	}
	defer sys.Close() // after a crash this fails; that is the point
	e := core.New(sys)
	for i := 1; i <= crashCubes+len(crashDeletes); i++ {
		var err error
		if i <= crashCubes {
			_, err = BuildCube(e, i, i, float64(i)*10, 1)
		} else {
			if i == crashCubes+1 {
				loadWrites, _ = plan.Counts()
			}
			_, err = e.ExecuteScript(fmt.Sprintf(`DELETE FROM solid-brep-face-edge-point WHERE solid_no = %d`, crashDeletes[i-crashCubes-1]))
		}
		if err == nil {
			err = sys.WALCommit(sys.NewTxID()) // an empty commit forces the log
		}
		if err != nil {
			if plan.Crashed() {
				return 0
			}
			t.Fatal(err)
		}
	}
	return loadWrites
}

// verifyCubes reopens a crashed database without fault injection and checks
// that recovery left whole cubes only: every reference is live and
// symmetric, every brep has its whole cube and its cluster occurrence, no
// atom lies outside a cube, the cubes are those of a prefix of the
// workload's statements, and the database takes a new cube.
func verifyCubes(t *testing.T, dir, point string) {
	t.Helper()
	sys, err := access.Open(crashConfig(dir, nil))
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", point, err)
	}
	defer sys.Close()
	check := func(when string) int {
		t.Helper()
		if err := sys.CheckIntegrity(""); err != nil {
			t.Fatalf("%s: %s: %v", point, when, err)
		}
		if err := checkSnapshot(sys, 0); err != nil {
			t.Fatalf("%s: %s: %v", point, when, err)
		}
		n := map[string]int{}
		for _, typ := range []string{"solid", "brep", "face", "edge", "point"} {
			as, err := sys.ScanAddrs(typ)
			if err != nil {
				t.Fatal(err)
			}
			n[typ] = len(as)
		}
		b := n["brep"]
		if n["solid"] != b || n["face"] != b*CubeFaces || n["edge"] != b*CubeEdges || n["point"] != b*CubePoints {
			t.Fatalf("%s: %s: atoms outside whole cubes: %v", point, when, n)
		}
		return b
	}
	cubes := check("after recovery")
	breps, err := sys.ScanAddrs("brep")
	if err != nil {
		t.Fatal(err)
	}
	var nos []int
	for _, a := range breps {
		at, err := sys.Get(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := at.Value("brep_no")
		nos = append(nos, int(v.I))
		occ, err := sys.ClusterOccurrenceOf("cube_cl", a)
		if err != nil {
			t.Fatalf("%s: cluster of brep %v: %v", point, a, err)
		}
		if len(occ.Records) != CubeAtoms {
			t.Fatalf("%s: cluster of brep %v holds %d atoms, want %d", point, a, len(occ.Records), CubeAtoms)
		}
	}
	slices.Sort(nos)
	if !slices.ContainsFunc(crashStates(), func(st []int) bool { return slices.Equal(st, nos) }) {
		t.Fatalf("%s: cubes %v survived: not the state after a prefix of the workload", point, nos)
	}
	if _, err := BuildCube(core.New(sys), 1000, 1000, 0, 1); err != nil {
		t.Fatalf("%s: cube after recovery: %v", point, err)
	}
	if got := check("after a new cube"); got != cubes+1 {
		t.Fatalf("%s: %d cubes after adding one to %d", point, got, cubes)
	}
}

// crashStates lists the cubes left after each prefix of the crash
// workload's statements, in brep_no order.
func crashStates() [][]int {
	var states [][]int
	var cubes []int
	for i := 0; i <= crashCubes; i++ {
		if i > 0 {
			cubes = append(cubes, i)
		}
		states = append(states, slices.Clone(cubes))
	}
	for _, no := range crashDeletes {
		cubes = slices.DeleteFunc(cubes, func(c int) bool { return c == no })
		states = append(states, slices.Clone(cubes))
	}
	return states
}

// TestCrashDuringCubeLoadEveryPoint is the crash-recovery property test of
// unscoped atom sets: it rehearses a load of cube sets and the DELETE of
// some cubes to count its device writes and syncs, then repeats it crashing
// at each of them, a write persisting a random (torn) prefix of its block. A
// set is atomic in the log, so recovery keeps each cube whole or drops it
// whole, whatever prefix of its records survived. The log is forced after
// each statement only, so a statement's records survive in part only when
// the first write of its flush is torn late: each write of the DELETE phase
// also crashes persisting all but the last byte of its block.
func TestCrashDuringCubeLoadEveryPoint(t *testing.T) {
	base := t.TempDir()
	rehearsalDir := filepath.Join(base, "rehearsal")
	setupCrashCubes(t, rehearsalDir)
	plan := device.NewCrashPlan() // never armed
	loadWrites := loadCubes(t, rehearsalDir, plan)
	writes, syncs := plan.Counts()
	if n := crashCubes + len(crashDeletes); syncs < n || writes < n || loadWrites >= writes {
		t.Fatalf("rehearsal too quiet: %d writes (%d before the deletes), %d syncs", writes, loadWrites, syncs)
	}
	verifyCubes(t, rehearsalDir, "rehearsal")

	crashAt := func(name string, arm func(*device.CrashPlan)) {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(base, name)
			setupCrashCubes(t, dir)
			plan := device.NewCrashPlan()
			arm(plan)
			loadCubes(t, dir, plan)
			verifyCubes(t, dir, "crash at "+name)
		})
	}
	for k := 1; k <= syncs; k++ {
		crashAt(fmt.Sprintf("sync-%d", k), func(p *device.CrashPlan) { p.CrashAtSync(k) })
	}
	rng := rand.New(rand.NewSource(7))
	for j := 1; j <= writes; j++ {
		torn := rng.Intn(8 << 10)
		crashAt(fmt.Sprintf("write-%d", j), func(p *device.CrashPlan) { p.CrashAtWrite(j, torn) })
	}
	for j := loadWrites + 1; j <= writes; j++ {
		crashAt(fmt.Sprintf("write-%d-late", j), func(p *device.CrashPlan) { p.CrashAtWrite(j, 8<<10-1) })
	}
}
