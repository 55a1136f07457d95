package brepgen

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"prima/internal/access"
	"prima/internal/core"
	"prima/internal/storage/device"
)

// crashCubes is the number of cubes the crash workload loads, each as one
// unscoped atom set.
const crashCubes = 8

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

// loadCubes loads crashCubes cubes with every device volatile and plan
// armed, forcing the log after each cube, and stops at the crash. A crash
// at a torn log write leaves a durable log that ends inside a cube's set.
func loadCubes(t *testing.T, dir string, plan *device.CrashPlan) {
	t.Helper()
	sys, err := access.Open(crashConfig(dir, func(name string, d device.Device) device.Device {
		fd := device.NewFault(d)
		fd.SetVolatile(true)
		fd.SetPlan(plan, strings.HasPrefix(name, "wal_"))
		return fd
	}))
	if err != nil {
		if plan.Crashed() {
			return
		}
		t.Fatal(err)
	}
	defer sys.Close() // after a crash this fails; that is the point
	e := core.New(sys)
	for i := 1; i <= crashCubes; i++ {
		_, err := BuildCube(e, i, i, float64(i)*10, 1)
		if err == nil {
			err = sys.WALCommit(sys.NewTxID()) // an empty commit forces the log
		}
		if err != nil {
			if plan.Crashed() {
				return
			}
			t.Fatal(err)
		}
	}
}

// verifyCubes reopens a crashed database without fault injection and checks
// that recovery left whole cubes only: every reference is live and
// symmetric, every brep has its whole cube and its cluster occurrence, no
// atom lies outside a cube, the cubes are a prefix of the load order, and
// the database takes a new cube.
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
	for _, a := range breps {
		at, err := sys.Get(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := at.Value("brep_no"); v.I < 1 || v.I > int64(cubes) {
			t.Fatalf("%s: cube %d survived, but only %d cubes did: not a prefix of the load", point, v.I, cubes)
		}
		occ, err := sys.ClusterOccurrenceOf("cube_cl", a)
		if err != nil {
			t.Fatalf("%s: cluster of brep %v: %v", point, a, err)
		}
		if len(occ.Records) != CubeAtoms {
			t.Fatalf("%s: cluster of brep %v holds %d atoms, want %d", point, a, len(occ.Records), CubeAtoms)
		}
	}
	if _, err := BuildCube(core.New(sys), 1000, 1000, 0, 1); err != nil {
		t.Fatalf("%s: cube after recovery: %v", point, err)
	}
	if got := check("after a new cube"); got != cubes+1 {
		t.Fatalf("%s: %d cubes after adding one to %d", point, got, cubes)
	}
}

// TestCrashDuringCubeLoadEveryPoint is the crash-recovery property test of
// unscoped atom sets: it rehearses a load of cube sets to count its device
// writes and syncs, then repeats the load crashing at each of them, a write
// persisting a random (torn) prefix of its block. A set is atomic in the
// log, so recovery keeps each cube whole or drops it whole, whatever prefix
// of its records survived.
func TestCrashDuringCubeLoadEveryPoint(t *testing.T) {
	base := t.TempDir()
	rehearsalDir := filepath.Join(base, "rehearsal")
	setupCrashCubes(t, rehearsalDir)
	plan := device.NewCrashPlan() // never armed
	loadCubes(t, rehearsalDir, plan)
	writes, syncs := plan.Counts()
	if syncs < crashCubes || writes < crashCubes {
		t.Fatalf("rehearsal too quiet: %d writes, %d syncs", writes, syncs)
	}
	verifyCubes(t, rehearsalDir, "rehearsal")

	for k := 1; k <= syncs; k++ {
		t.Run(fmt.Sprintf("sync-%d", k), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("sync%d", k))
			setupCrashCubes(t, dir)
			plan := device.NewCrashPlan()
			plan.CrashAtSync(k)
			loadCubes(t, dir, plan)
			verifyCubes(t, dir, fmt.Sprintf("crash at sync %d", k))
		})
	}
	rng := rand.New(rand.NewSource(7))
	for j := 1; j <= writes; j++ {
		torn := rng.Intn(8 << 10)
		t.Run(fmt.Sprintf("write-%d", j), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("write%d", j))
			setupCrashCubes(t, dir)
			plan := device.NewCrashPlan()
			plan.CrashAtWrite(j, torn)
			loadCubes(t, dir, plan)
			verifyCubes(t, dir, fmt.Sprintf("crash at write %d (torn %d)", j, torn))
		})
	}
}
