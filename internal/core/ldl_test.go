package core_test

import (
	"fmt"
	"strings"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/core"
	"prima/internal/storage/device"
	"prima/internal/workload/brepgen"
)

// TestFailedLDLLeavesNothingBehind: an LDL statement that fails after the
// catalog accepted its definition tears the structure down again. Queries
// then run as before the statement, and the statement can be retried.
func TestFailedLDLLeavesNothingBehind(t *testing.T) {
	t.Run("access path key too long", func(t *testing.T) {
		e := newEngine(t)
		mustQuery(t, e, `CREATE ATOM_TYPE doc (doc_id: IDENTIFIER, title: CHAR_VAR)`)
		mustQuery(t, e, `INSERT INTO doc (title) VALUES ('short')`)
		mustQuery(t, e, `INSERT INTO doc (title) VALUES ('`+strings.Repeat("x", 2000)+`')`)
		const create = `CREATE ACCESS PATH dt ON doc (title) USING BTREE`
		findShort := func(when string) {
			t.Helper()
			if r := mustQuery(t, e, `SELECT ALL FROM doc WHERE title = 'short'`); len(r.Molecules) != 1 {
				t.Fatalf("%s: the select finds %d docs titled short, want 1", when, len(r.Molecules))
			}
		}
		for range 2 { // the retry must fail the same way, not as a duplicate
			if _, err := execOne(e, create); err == nil || !strings.Contains(err.Error(), "key exceeds") {
				t.Fatalf("CREATE over a 2,000-byte title: %v, want the B-tree's refusal", err)
			}
			findShort("after the failed CREATE")
		}
		mustQuery(t, e, `MODIFY doc SET title = 'long' WHERE title <> 'short'`)
		mustQuery(t, e, create)
		findShort("through the access path")
	})

	t.Run("cluster segment fault", func(t *testing.T) {
		// Writes to the cluster segment's data pages fail; the buffer holds
		// eight 8 KiB pages, so building the occurrences of 30 cubes, two
		// to a page, writes some back and fails partway.
		var faults []*device.FaultDevice
		armed := true
		wrap := func(name string, d device.Device) device.Device {
			if !armed || !strings.HasPrefix(name, "cluster_") {
				return d
			}
			f := device.NewFault(d)
			for i := 2; i < 64; i++ { // blocks 0 and 1 hold the segment's bitmap
				f.FailWriteBlock(i)
			}
			faults = append(faults, f)
			return f
		}
		sys, err := access.Open(access.Config{BufferBytes: 64 << 10, FileWrap: wrap})
		if err != nil {
			t.Fatal(err)
		}
		e := core.New(sys)
		if err := brepgen.InstallSchema(e); err != nil {
			t.Fatal(err)
		}
		if _, err := brepgen.BuildScene(e, 30); err != nil {
			t.Fatal(err)
		}
		const create = `CREATE ATOM_CLUSTER cl ON brep-face-edge-point`
		if _, err := execOne(e, create); err == nil {
			t.Fatal("CREATE ATOM_CLUSTER succeeded over a failing segment")
		}
		armed = false
		for _, f := range faults {
			for i := 2; i < 64; i++ {
				f.HealWriteBlock(i)
			}
		}
		if sys.HasCluster("cl") {
			t.Fatal("the failed cluster is still registered")
		}
		brep, _ := sys.Schema().AtomType("brep")
		sys.Directory().Scan(brep.ID, func(a addr.LogicalAddr, refs []addr.RecordRef) bool {
			for _, r := range refs {
				if r.Kind == addr.KindCluster {
					t.Errorf("root %v keeps a ref into the failed cluster", a)
				}
			}
			return true
		})
		cube := func(when string, no int) {
			t.Helper()
			r := mustQuery(t, e, fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, no))
			if len(r.Molecules) != 1 || r.Molecules[0].Size() != brepgen.CubeAtoms {
				t.Fatalf("%s: brep_no = %d gives %d molecules", when, no, len(r.Molecules))
			}
		}
		cube("after the failed CREATE", 7)
		if _, err := brepgen.BuildCube(e, 31, 31, 100, 1); err != nil {
			t.Fatalf("a cube load after the failed CREATE: %v", err)
		}
		mustQuery(t, e, create)
		if plan := explain(t, e, `EXPLAIN SELECT ALL FROM brep-face-edge-point WHERE brep_no = 31`); !strings.Contains(plan, "cluster cl") {
			t.Fatalf("the retried cluster is not used:\n%s", plan)
		}
		cube("through the retried cluster", 7)
		cube("through the retried cluster", 31)
	})
}
