// Command primabench regenerates every table and figure of the paper's
// design discussion as a measured experiment (see EXPERIMENTS.md for the
// mapping and recorded outputs).
//
// Usage:
//
//	primabench [-exp id] [-scale n]
//
// Experiment ids: fig2.1 fig2.2 fig3.1 fig3.2 t2.1a t2.1b t2.1c t2.1d
// a1 a2 a3 a4 a5 a6 a7, or "all" (default).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"prima"
	"prima/internal/access"
	"prima/internal/access/atom"
	"prima/internal/baseline"
	"prima/internal/catalog"
	"prima/internal/storage/buffer"
	"prima/internal/storage/device"
	"prima/internal/storage/page"
	"prima/internal/storage/segment"
	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

var scale = flag.Int("scale", 1, "workload scale multiplier")

func main() {
	exp := flag.String("exp", "all", "experiment id")
	flag.Parse()

	experiments := []struct {
		id  string
		fn  func() error
		doc string
	}{
		{"fig2.1", fig21, "modeling approaches to boundary representation"},
		{"fig2.2", fig22, "relationship types via symmetric association types"},
		{"fig3.1", fig31, "operations per second at each layer interface"},
		{"fig3.2", fig32, "atom cluster vs per-atom molecule construction"},
		{"t2.1a", t21a, "vertical access to network molecules"},
		{"t2.1b", t21b, "vertical access to recursive molecules"},
		{"t2.1c", t21c, "horizontal access with projection"},
		{"t2.1d", t21d, "branching molecule, quantifier, qualified projection"},
		{"a1", a1, "buffer: size-aware LRU vs static partitioning"},
		{"a2", a2, "sort scan with and without a sort order"},
		{"a3", a3, "projection via partition vs primary"},
		{"a4", a4, "deferred vs immediate redundancy maintenance"},
		{"a5", a5, "semantic parallelism speedup"},
		{"a6", a6, "checkout vs atom-at-a-time round trips"},
		{"a7", a7, "nested transaction overhead and selective rollback"},
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		fmt.Printf("\n### %s — %s\n", e.id, e.doc)
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

// newScene builds an engine with n cubes.
func newScene(n int) (*prima.DB, error) {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		return nil, err
	}
	if _, err := brepgen.BuildScene(db.Engine(), n); err != nil {
		return nil, err
	}
	return db, nil
}

func fig21() error {
	fmt.Println("objects | model        | records |   bytes | point copies | move-point writes | inverse traversal")
	for _, n := range []int{1, 4, 16} {
		n *= *scale
		ms, err := baseline.Compare(n)
		if err != nil {
			return err
		}
		for _, m := range ms {
			fmt.Printf("%7d | %-12s | %7d | %7d | %12d | %17d | %v\n",
				n, m.Model, m.Records, m.Bytes, m.PointCopies, m.MovePointWrites, m.InverseTraversal)
		}
	}
	return nil
}

func fig22() error {
	sys, err := access.Open(access.Config{})
	if err != nil {
		return err
	}
	defer sys.Close()
	// Three relationship types between A and B, each as an association.
	a, _ := catalog.NewAtomType("a", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "one", Type: catalog.SpecRef("b", "one")},                               // 1:1
		{Name: "many", Type: catalog.SpecSetOf(catalog.SpecRef("b", "owner"), 0, -1)},  // 1:n
		{Name: "links", Type: catalog.SpecSetOf(catalog.SpecRef("b", "links"), 0, -1)}, // n:m
	}, nil)
	b, _ := catalog.NewAtomType("b", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "one", Type: catalog.SpecRef("a", "one")},
		{Name: "owner", Type: catalog.SpecRef("a", "many")},
		{Name: "links", Type: catalog.SpecSetOf(catalog.SpecRef("a", "links"), 0, -1)},
	}, nil)
	if err := sys.Schema().AddAtomType(a); err != nil {
		return err
	}
	if err := sys.Schema().AddAtomType(b); err != nil {
		return err
	}
	if err := sys.Schema().ResolveAssociations(); err != nil {
		return err
	}
	const n = 2000
	var as, bs []prima.LogicalAddr
	for i := 0; i < n; i++ {
		x, err := sys.Insert("a", nil)
		if err != nil {
			return err
		}
		y, err := sys.Insert("b", nil)
		if err != nil {
			return err
		}
		as, bs = append(as, x), append(bs, y)
	}
	bench := func(label, attr string) error {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := sys.Connect(as[i], attr, bs[i]); err != nil {
				return err
			}
		}
		d := time.Since(start)
		fmt.Printf("%-4s connect+auto-backref: %8.0f ops/s\n", label, float64(n)/d.Seconds())
		return nil
	}
	if err := bench("1:1", "one"); err != nil {
		return err
	}
	if err := bench("1:n", "many"); err != nil {
		return err
	}
	return bench("n:m", "links")
}

func fig31() error {
	db, err := newScene(20 * *scale)
	if err != nil {
		return err
	}
	defer db.Close()
	sys := db.System()

	// Storage interface: page fixes.
	dev, _ := device.NewMem(device.B8K)
	seg, err := segment.Create(dev, 99, 1024)
	if err != nil {
		return err
	}
	pool := buffer.NewPool(buffer.NewSizeAwareLRU(1 << 20))
	pool.Register(seg)
	no, _ := seg.AllocatePage()
	h, err := pool.FixNew(segment.PageID{Seg: 99, No: no})
	if err != nil {
		return err
	}
	h.Page().Init(2, 99, no)
	h.Release()
	const pageOps = 200000
	start := time.Now()
	for i := 0; i < pageOps; i++ {
		h, err := pool.Fix(segment.PageID{Seg: 99, No: no})
		if err != nil {
			return err
		}
		h.Release()
	}
	fmt.Printf("storage system (page fix/unfix):  %10.0f ops/s\n", pageOps/time.Since(start).Seconds())

	// Access interface: atom reads.
	addrs, _ := sys.ScanAddrs("edge")
	const atomOps = 50000
	start = time.Now()
	for i := 0; i < atomOps; i++ {
		if _, err := sys.Get(addrs[i%len(addrs)], nil); err != nil {
			return err
		}
	}
	fmt.Printf("access system  (atom get):        %10.0f ops/s\n", atomOps/time.Since(start).Seconds())

	// Data interface: molecule materialization.
	const molOps = 400
	start = time.Now()
	for i := 0; i < molOps; i++ {
		q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i%(20**scale)+1)
		if _, err := db.ExecOne(q); err != nil {
			return err
		}
	}
	fmt.Printf("data system    (molecule query):  %10.0f ops/s (%d-atom molecules)\n",
		molOps/time.Since(start).Seconds(), brepgen.CubeAtoms)
	return nil
}

func fig32() error {
	n := 50 * *scale
	// A deliberately small buffer (8 frames of 8K): molecule construction
	// from scattered primary pages must re-read pages, while the atom
	// cluster moves each molecule with chained I/O.
	db, err := prima.Open(prima.Config{BufferBytes: 64 * 1024})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		return err
	}
	if _, err := brepgen.BuildScene(db.Engine(), n); err != nil {
		return err
	}
	sys := db.System()

	measure := func(label string) error {
		sys.Files().ResetStats()
		sys.Pool().ResetStats()
		start := time.Now()
		for i := 1; i <= n; i++ {
			q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i)
			res, err := db.ExecOne(q)
			if err != nil {
				return err
			}
			if len(res.Molecules) != 1 || res.Molecules[0].Size() != brepgen.CubeAtoms {
				return fmt.Errorf("bad molecule result")
			}
		}
		d := time.Since(start)
		io := sys.Files().Stats()
		fmt.Printf("%-12s %8.2f ms total, %6.0f µs/molecule, seeks=%d blocks=%d (simulated disk: %v)\n",
			label, d.Seconds()*1000, d.Seconds()*1e6/float64(n), io.Seeks, io.BlocksTransferred(), io.Cost(device.B8K))
		return nil
	}
	if err := measure("no cluster"); err != nil {
		return err
	}
	if _, err := db.Exec(`CREATE ATOM_CLUSTER brep_cl ON brep-face-edge-point`); err != nil {
		return err
	}
	return measure("atom cluster")
}

func t21a() error {
	fmt.Println("solids | access    | µs/molecule")
	for _, n := range []int{10, 50, 200} {
		n *= *scale
		db, err := newScene(n)
		if err != nil {
			return err
		}
		run := func(label string) error {
			const reps = 200
			start := time.Now()
			for i := 0; i < reps; i++ {
				q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i%n+1)
				if _, err := db.ExecOne(q); err != nil {
					return err
				}
			}
			fmt.Printf("%6d | %-9s | %8.0f\n", n, label, time.Since(start).Seconds()*1e6/reps)
			return nil
		}
		if err := run("atomscan"); err != nil {
			return err
		}
		if _, err := db.Exec(`CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`); err != nil {
			return err
		}
		if err := run("accesspath"); err != nil {
			return err
		}
		db.Close()
	}
	return nil
}

func t21b() error {
	fmt.Println("depth | solids | µs/molecule-set")
	for _, depth := range []int{2, 4, 6, 8} {
		db, err := prima.Open(prima.Config{})
		if err != nil {
			return err
		}
		if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
			return err
		}
		_, count, err := brepgen.BuildAssembly(db.Engine(), 4711, depth, 2)
		if err != nil {
			return err
		}
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			res, err := db.ExecOne(`SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`)
			if err != nil {
				return err
			}
			if len(res.Molecules[0].AtomsOf("solid")) != count {
				return fmt.Errorf("lost solids")
			}
		}
		fmt.Printf("%5d | %6d | %8.0f\n", depth, count, time.Since(start).Seconds()*1e6/reps)
		db.Close()
	}
	return nil
}

func t21c() error {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		return err
	}
	// Assemblies give a mix of leaf/non-leaf solids.
	if _, _, err := brepgen.BuildAssembly(db.Engine(), 1000, 7, 2); err != nil {
		return err
	}
	const reps = 100
	start := time.Now()
	var leaves int
	for i := 0; i < reps; i++ {
		res, err := db.ExecOne(`SELECT solid_no, description FROM solid WHERE sub = EMPTY`)
		if err != nil {
			return err
		}
		leaves = len(res.Molecules)
	}
	fmt.Printf("horizontal scan over %d solids: %d primitive, %8.0f µs/scan\n",
		db.System().Count("solid"), leaves, time.Since(start).Seconds()*1e6/reps)
	return nil
}

func t21d() error {
	db, err := newScene(20 * *scale)
	if err != nil {
		return err
	}
	defer db.Close()
	q := `
	  SELECT edge, (point,
	         face := SELECT face_id, square_dim FROM face WHERE square_dim > 10.0)
	  FROM brep-edge-(face, point)
	  WHERE brep_no = 7 AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0`
	const reps = 300
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := db.ExecOne(q); err != nil {
			return err
		}
	}
	fmt.Printf("Table 2.1d query: %8.0f µs/execution\n", time.Since(start).Seconds()*1e6/reps)
	return nil
}

func a1() error {
	// Mixed page sizes, shifting reference pattern: phase 1 hits small
	// pages, phase 2 hits large ones. The static partitioning wastes the
	// other partition's budget in each phase.
	build := func(policy buffer.Policy) (float64, error) {
		devS, _ := device.NewMem(device.B512)
		segS, err := segment.Create(devS, 1, 4096)
		if err != nil {
			return 0, err
		}
		devL, _ := device.NewMem(device.B8K)
		segL, err := segment.Create(devL, 2, 4096)
		if err != nil {
			return 0, err
		}
		pool := buffer.NewPool(policy)
		pool.Register(segS)
		pool.Register(segL)
		var small, large []uint32
		buf := make([]byte, device.B512)
		for i := 0; i < 64; i++ {
			no, _ := segS.AllocatePage()
			pg := pageInit(buf, 1, no)
			segS.WritePage(no, pg)
			small = append(small, no)
		}
		bufL := make([]byte, device.B8K)
		for i := 0; i < 8; i++ {
			no, _ := segL.AllocatePage()
			pg := pageInit(bufL, 2, no)
			segL.WritePage(no, pg)
			large = append(large, no)
		}
		// Phase 1: small pages only; phase 2: large pages only.
		for phase := 0; phase < 2; phase++ {
			for rep := 0; rep < 200; rep++ {
				if phase == 0 {
					for _, no := range small[:32] {
						h, err := pool.Fix(segment.PageID{Seg: 1, No: no})
						if err != nil {
							return 0, err
						}
						h.Release()
					}
				} else {
					for _, no := range large[:4] {
						h, err := pool.Fix(segment.PageID{Seg: 2, No: no})
						if err != nil {
							return 0, err
						}
						h.Release()
					}
				}
			}
		}
		return pool.Stats().HitRatio(), nil
	}
	const budget = 40 * 1024
	r1, err := build(buffer.NewSizeAwareLRU(budget))
	if err != nil {
		return err
	}
	r2, err := build(buffer.NewPartitionedLRU(map[int]int64{device.B512: budget / 2, device.B8K: budget / 2}))
	if err != nil {
		return err
	}
	fmt.Printf("size-aware LRU (one pool):    hit ratio %.3f\n", r1)
	fmt.Printf("static partitioning:          hit ratio %.3f\n", r2)
	return nil
}

func pageInit(buf []byte, seg, no uint32) []byte {
	pg := page.Page(buf)
	pg.Init(page.TypeData, seg, no)
	pg.SealChecksum()
	return buf
}

func a2() error {
	db, err := newScene(0)
	if err != nil {
		return err
	}
	defer db.Close()
	sys := db.System()
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := sys.Insert("solid", map[string]atom.Value{
			"solid_no":    atom.Int(int64((i * 7919) % 100000)),
			"description": atom.Str("part"),
		}); err != nil {
			return err
		}
	}
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		cnt := 0
		if err := sys.SortedTypeScan("solid", []string{"solid_no"}, false, nil, func(*access.Atom) bool {
			cnt++
			return true
		}); err != nil {
			return err
		}
	}
	explicit := time.Since(start) / reps

	if err := sys.CreateSortOrder(&catalog.SortOrderDef{Name: "so", AtomType: "solid", Attrs: []string{"solid_no"}}); err != nil {
		return err
	}
	start = time.Now()
	for r := 0; r < reps; r++ {
		cnt := 0
		if err := sys.SortScan("so", nil, nil, nil, func(*access.Atom) bool {
			cnt++
			return true
		}); err != nil {
			return err
		}
	}
	viaOrder := time.Since(start) / reps
	fmt.Printf("sorted read of %d atoms: explicit sort %v, via sort order %v (%.1fx)\n",
		n, explicit, viaOrder, float64(explicit)/float64(viaOrder))
	return nil
}

func a3() error {
	db, err := newScene(0)
	if err != nil {
		return err
	}
	defer db.Close()
	sys := db.System()
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := sys.Insert("solid", map[string]atom.Value{
			"solid_no":    atom.Int(int64(i)),
			"description": atom.Str("a rather long descriptive text that makes the atom wide enough for the partition to pay off when only the number is wanted ..."),
		}); err != nil {
			return err
		}
	}
	addrs, _ := sys.ScanAddrs("solid")
	read := func() (time.Duration, error) {
		start := time.Now()
		for _, a := range addrs {
			if _, err := sys.Get(a, []string{"solid_no"}); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	before, err := read()
	if err != nil {
		return err
	}
	if err := sys.CreatePartition(&catalog.PartitionDef{Name: "nums", AtomType: "solid", Attrs: []string{"solid_no"}}); err != nil {
		return err
	}
	after, err := read()
	if err != nil {
		return err
	}
	fmt.Printf("projected read of %d wide atoms: primary %v, partition %v (%.1fx)\n",
		n, before, after, float64(before)/float64(after))
	return nil
}

func a4() error {
	db, err := newScene(0)
	if err != nil {
		return err
	}
	defer db.Close()
	sys := db.System()
	const n = 2000
	var addrs []prima.LogicalAddr
	for i := 0; i < n; i++ {
		a, err := sys.Insert("solid", map[string]atom.Value{"solid_no": atom.Int(int64(i)), "description": atom.Str("x")})
		if err != nil {
			return err
		}
		addrs = append(addrs, a)
	}
	// Two redundant structures whose records must follow every update.
	if err := sys.CreateSortOrder(&catalog.SortOrderDef{Name: "so", AtomType: "solid", Attrs: []string{"solid_no"}}); err != nil {
		return err
	}
	if err := sys.CreatePartition(&catalog.PartitionDef{Name: "pt", AtomType: "solid", Attrs: []string{"description"}}); err != nil {
		return err
	}
	start := time.Now()
	for _, a := range addrs {
		if err := sys.Update(a, map[string]atom.Value{"description": atom.Str("updated")}); err != nil {
			return err
		}
	}
	updates := time.Since(start)
	pending := sys.PendingDeferred()
	start = time.Now()
	if err := sys.PropagateDeferred(); err != nil {
		return err
	}
	prop := time.Since(start)
	fmt.Printf("%d updates with redundancy 3: immediate %v (%.0f µs/op), %d deferred tasks propagated in %v\n",
		n, updates, updates.Seconds()*1e6/float64(n), pending, prop)
	return nil
}

func a5() error {
	db, err := newScene(64 * *scale)
	if err != nil {
		return err
	}
	defer db.Close()
	// Cluster-based assembly: the cursor pipeline's workers read disjoint
	// page sequences and decode independently, the shape that exposes the
	// inherent parallelism of molecule-set operations. A cursor over many
	// roots reads ahead on min(GOMAXPROCS, 8) workers, so the sweep is over
	// GOMAXPROCS.
	if _, err := db.Exec(`CREATE ATOM_CLUSTER cl ON brep-face-edge-point`); err != nil {
		return err
	}
	q := `SELECT ALL FROM brep-face-edge-point`
	base := time.Duration(0)
	fmt.Println("GOMAXPROCS | ms/query | speedup")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 4, 8} {
		const reps = 5
		runtime.GOMAXPROCS(w)
		start := time.Now()
		for i := 0; i < reps; i++ {
			cur, err := db.Query(q)
			if err != nil {
				return err
			}
			mols, err := cur.Collect()
			cur.Close()
			if err != nil {
				return err
			}
			if len(mols) != 64**scale {
				return fmt.Errorf("lost molecules")
			}
		}
		d := time.Since(start) / reps
		if w == 1 {
			base = d
		}
		fmt.Printf("%10d | %8.2f | %5.2fx\n", w, d.Seconds()*1000, float64(base)/float64(d))
	}
	return nil
}

func a6() error {
	db, err := newScene(2)
	if err != nil {
		return err
	}
	defer db.Close()
	srv, err := wire.Serve(db, "")
	if err != nil {
		return err
	}
	defer srv.Close()

	c1, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c1.Close()
	mols, err := c1.Checkout(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1`)
	if err != nil {
		return err
	}
	c2, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c2.Close()
	for _, a := range mols[0].Atoms {
		if _, err := c2.FetchAtom(a.Addr); err != nil {
			return err
		}
	}
	fmt.Printf("molecule of %d atoms: checkout = %d round trip(s), atom-at-a-time = %d\n",
		len(mols[0].Atoms), c1.RoundTrips(), c2.RoundTrips())
	return nil
}

func a7() error {
	db, err := newScene(0)
	if err != nil {
		return err
	}
	defer db.Close()
	const n = 500
	// Autocommit baseline.
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := db.ExecOne(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, i)); err != nil {
			return err
		}
	}
	auto := time.Since(start)
	// Transactional inserts (commit).
	start = time.Now()
	for i := 0; i < n; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, n+i)); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	committed := time.Since(start)
	// Aborted transactions leave no trace.
	startCount := db.System().Count("solid")
	start = time.Now()
	for i := 0; i < n; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, 2*n+i)); err != nil {
			return err
		}
		if err := tx.Abort(); err != nil {
			return err
		}
	}
	aborted := time.Since(start)
	if db.System().Count("solid") != startCount {
		return fmt.Errorf("abort leaked atoms")
	}
	fmt.Printf("%d inserts: autocommit %v, tx+commit %v (%.2fx), tx+abort %v (all undone)\n",
		n, auto, committed, float64(committed)/float64(auto), aborted)
	return nil
}
