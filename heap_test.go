package prima

import (
	"fmt"
	"runtime"
	"testing"

	"prima/internal/access"
	"prima/internal/race"
	"prima/internal/workload/brepgen"
)

// TestHeapBoundedByBudgets pins what the server keeps on its heap after a
// cold sweep over a design several times the size of both caches: the buffer
// and the atom cache up to their budgets, the directory at a constant per
// atom, and nothing else that grows with the sweep. (ROADMAP item 5(d): the
// 336 MB bench saw on checkout_cold were the two clients' object buffers; the
// server's own share is what this test bounds.)
func TestHeapBoundedByBudgets(t *testing.T) {
	if race.Enabled || testing.Short() {
		t.Skip("heap accounting needs an uninstrumented build and a 1,000-cube scene")
	}
	const (
		cubes       = 1000
		bufferBytes = 1 << 20
		// dirPerAtom is a directory slot (addr.slot, 24 bytes) with room for
		// the last table page of each type being partly used.
		dirPerAtom = 32
		// slack covers what does not grow with the design — schema, plan
		// cache, the metrics registry — what grows by a few bytes per page
		// (free-space inventories), and the heap's own fragmentation under
		// HeapInuse.
		slack = 2 << 20
	)
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	base := heapInuse()
	db, err := Open(Config{Dir: t.TempDir(), BufferBytes: bufferBytes}) // on disk: a memory device would keep the design on the heap
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), cubes); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= cubes; k++ {
		res, err := db.ExecOne(fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, k))
		if err != nil || len(res.Molecules) != 1 || res.Molecules[0].Size() != brepgen.CubeAtoms {
			t.Fatalf("cube %d: %v", k, err)
		}
	}
	st := db.System().Pool().Stats()
	if st.Evictions == 0 || st.FramesRecycled == 0 {
		t.Fatalf("the sweep was not cold: %d evictions, %d frames recycled", st.Evictions, st.FramesRecycled)
	}
	const atoms = cubes * brepgen.CubeAtoms
	cacheBytes := uint64(access.DefaultAtomCacheAtoms) * 256
	got := heapInuse() - base
	bound := uint64(bufferBytes) + cacheBytes + dirPerAtom*atoms + slack
	t.Logf("heap in use after the sweep: %.1f MiB over the baseline; buffer %.1f + atom cache %.1f + directory %.1f + slack %.1f = %.1f MiB",
		float64(got)/(1<<20), float64(bufferBytes)/(1<<20), float64(cacheBytes)/(1<<20), float64(dirPerAtom*atoms)/(1<<20), float64(slack)/(1<<20), float64(bound)/(1<<20))
	if got > bound {
		t.Errorf("server heap %d bytes over the baseline, bound %d", got, bound)
	}
}
