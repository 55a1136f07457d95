package prima

// One testing.B benchmark per paper artifact (tables and figures) plus the
// ablations; `go test -bench=. -benchmem` regenerates every series, and
// the figures that make a claim (Fig. 3.2 and the reads after a load here,
// A1's BenchmarkPolicies in internal/storage/buffer) fail when it no longer
// holds. EXPERIMENTS.md records the runs.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/mdindex"
	"prima/internal/baseline"
	"prima/internal/catalog"
	"prima/internal/storage/segment"
	"prima/internal/workload/brepgen"
	"prima/internal/workload/mapgen"
	"prima/internal/workload/vlsigen"
)

func benchScene(b *testing.B, n int, ldl string) *DB {
	b.Helper()
	db, _ := benchSceneConfig(b, Config{}, n)
	if ldl != "" {
		if _, err := db.Exec(ldl); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// benchSceneConfig opens a database under cfg and builds n cubes in it.
func benchSceneConfig(b *testing.B, cfg Config, n int) (*DB, []*brepgen.Cube) {
	b.Helper()
	db, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		b.Fatal(err)
	}
	cubes, err := brepgen.BuildScene(db.Engine(), n)
	if err != nil {
		b.Fatal(err)
	}
	return db, cubes
}

// coldScene is the scene of the storage-side benchmarks: 64 cubes under the
// smallest buffer the configuration admits, one stripe of eight 8 KiB frames,
// a small fraction of the pages the scene's atoms lie on.
func coldScene(b *testing.B) (*DB, []*brepgen.Cube) {
	return benchSceneConfig(b, Config{BufferBytes: 64 << 10}, 64)
}

// benchBufferFix fixes and releases the pages a checkout of the cold scene
// reads, round and round. With miss set that is every data page of the scene
// in turn, which under LRU never finds one resident; without, one page.
func benchBufferFix(b *testing.B, miss bool) {
	db, cubes := coldScene(b)
	sys := db.System()
	var pages []segment.PageID
	seen := map[segment.PageID]bool{}
	for _, c := range cubes {
		for _, level := range [][]addr.LogicalAddr{{c.Brep}, c.Faces, c.Edges, c.Points} {
			for _, a := range level {
				ref, ok := sys.Directory().LookupStruct(a, 0)
				seg, found := sys.PrimarySegment(a.Type())
				if !ok || !found {
					b.Fatalf("atom %v has no primary record", a)
				}
				if pid := (segment.PageID{Seg: seg, No: ref.Where.Page}); !seen[pid] {
					seen[pid] = true
					pages = append(pages, pid)
				}
			}
		}
	}
	if !miss {
		pages = pages[:1]
	}
	pool := sys.Pool()
	for _, pid := range pages { // fill the pool; the one page of a hit run stays
		h, err := pool.Fix(pid)
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	before := pool.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := pool.Fix(pages[i%len(pages)])
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	b.StopTimer()
	st := pool.Stats()
	if misses := st.Misses - before.Misses; misses != 0 && !miss || misses != int64(b.N) && miss {
		b.Fatalf("%d misses over %d fixes of %d pages", misses, b.N, len(pages))
	}
	if st.FrameAllocs != before.FrameAllocs {
		b.Fatalf("a full pool allocated %d frames", st.FrameAllocs-before.FrameAllocs)
	}
}

// BenchmarkBufferFix measures the storage system's one read-side call: a
// fix that finds its page resident, and one that evicts a page, recycles its
// frame and reads the device.
func BenchmarkBufferFix(b *testing.B) {
	b.Run("hit", func(b *testing.B) { benchBufferFix(b, false) })
	b.Run("miss", func(b *testing.B) { benchBufferFix(b, true) })
}

// benchGetBatchCold reads one cube of the cold scene per iteration, level by
// level through a snapshot with the atom cache off: directory lookup, batched
// record read, page fixes that mostly miss, one image copy per atom.
func benchGetBatchCold(b *testing.B) {
	db, cubes := coldScene(b)
	sys := db.System()
	sys.SetAtomCacheSize(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cubes[i%len(cubes)]
		sn := sys.OpenSnapshot()
		for _, level := range [][]addr.LogicalAddr{{c.Brep}, c.Faces, c.Edges, c.Points} {
			if recs, err := sn.GetBatch(level); err != nil || len(recs) != len(level) {
				b.Fatalf("GetBatch: %d records, %v", len(recs), err)
			}
		}
		sn.Close()
	}
}

// BenchmarkGetBatchCold measures the access system's batched read below both
// caches — the unit of work of a checkout over a design larger than memory.
func BenchmarkGetBatchCold(b *testing.B) { benchGetBatchCold(b) }

// BenchmarkFig21_Modeling measures record counts of the three modeling
// approaches (the benchmark reports records-per-object as metrics).
func BenchmarkFig21_Modeling(b *testing.B) {
	for _, model := range []struct {
		name string
		fn   func(int) (baseline.Metrics, error)
	}{
		{"hierarchic", baseline.Hierarchical},
		{"network", baseline.Network},
		{"mad", baseline.MAD},
	} {
		b.Run(model.name, func(b *testing.B) {
			var m baseline.Metrics
			var err error
			for i := 0; i < b.N; i++ {
				m, err = model.fn(2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Records)/2, "records/object")
			b.ReportMetric(float64(m.MovePointWrites), "move-writes")
		})
	}
}

// BenchmarkFig22_Associations measures connect+auto-back-reference for the
// three relationship types of Fig. 2.2.
func BenchmarkFig22_Associations(b *testing.B) {
	for _, kind := range []struct{ name, attr string }{
		{"1to1", "one"}, {"1toN", "many"}, {"NtoM", "links"},
	} {
		b.Run(kind.name, func(b *testing.B) {
			sys, err := access.Open(access.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			at, _ := catalog.NewAtomType("a", []catalog.Attribute{
				{Name: "id", Type: catalog.SpecIdent()},
				{Name: "one", Type: catalog.SpecRef("b", "one")},
				{Name: "many", Type: catalog.SpecSetOf(catalog.SpecRef("b", "owner"), 0, -1)},
				{Name: "links", Type: catalog.SpecSetOf(catalog.SpecRef("b", "links"), 0, -1)},
			}, nil)
			bt, _ := catalog.NewAtomType("b", []catalog.Attribute{
				{Name: "id", Type: catalog.SpecIdent()},
				{Name: "one", Type: catalog.SpecRef("a", "one")},
				{Name: "owner", Type: catalog.SpecRef("a", "many")},
				{Name: "links", Type: catalog.SpecSetOf(catalog.SpecRef("a", "links"), 0, -1)},
			}, nil)
			sys.Schema().AddAtomType(at)
			sys.Schema().AddAtomType(bt)
			if err := sys.Schema().ResolveAssociations(); err != nil {
				b.Fatal(err)
			}
			as := make([]LogicalAddr, b.N)
			bs := make([]LogicalAddr, b.N)
			for i := 0; i < b.N; i++ {
				as[i], _ = sys.Insert("a", nil)
				bs[i], _ = sys.Insert("b", nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Connect(as[i], kind.attr, bs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig23_DDLCompile parses and installs the Fig. 2.3 schema.
func BenchmarkFig23_DDLCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := Open(Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkTable21a: vertical access to network molecules, by root access.
func BenchmarkTable21a(b *testing.B) {
	for _, tc := range []struct{ name, ldl string }{
		{"atomscan", ""},
		{"accesspath", `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`},
		{"cluster", `CREATE ATOM_CLUSTER cl ON brep-face-edge-point`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := benchScene(b, 50, tc.ldl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i%50+1)
				res, err := db.ExecOne(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Molecules) != 1 {
					b.Fatal("lost molecule")
				}
			}
		})
	}
}

// BenchmarkTable21b: recursive molecules over growing assemblies.
func BenchmarkTable21b(b *testing.B) {
	for _, depth := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			db, err := Open(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
				b.Fatal(err)
			}
			if _, _, err := brepgen.BuildAssembly(db.Engine(), 4711, depth, 2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecOne(`SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable21c: horizontal access with projection and EMPTY predicate.
func BenchmarkTable21c(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		b.Fatal(err)
	}
	if _, _, err := brepgen.BuildAssembly(db.Engine(), 1000, 6, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecOne(`SELECT solid_no, description FROM solid WHERE sub = EMPTY`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable21d: branching FROM, quantifier, qualified projection.
func BenchmarkTable21d(b *testing.B) {
	db := benchScene(b, 20, "")
	q := `
	  SELECT edge, (point,
	         face := SELECT face_id, square_dim FROM face WHERE square_dim > 10.0)
	  FROM brep-edge-(face, point)
	  WHERE brep_no = 7 AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecOne(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig31_LayerOps measures one operation at each layer interface.
func BenchmarkFig31_LayerOps(b *testing.B) {
	db := benchScene(b, 20, "")
	sys := db.System()
	addrs, _ := sys.ScanAddrs("edge")

	b.Run("access_atom_get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Get(addrs[i%len(addrs)], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("data_molecule_query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i%20+1)
			if _, err := db.ExecOne(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig32_ClusterVsNoCluster: molecule construction with and without
// the atom cluster. 50 cubes lie under coldScene's 64 KiB buffer with the
// atom cache off, so every molecule is built from pages. One fixed pass over
// the 50 molecules counts the device blocks each side moves
// (blocks/molecule), and the benchmark fails unless the cluster moves fewer:
// the paper's claim that a cluster brings a molecule in with chained I/O
// where per-atom construction re-reads scattered primary pages.
func BenchmarkFig32_ClusterVsNoCluster(b *testing.B) {
	const n = 50
	blocks := map[string]int64{}
	for _, tc := range []struct{ name, ldl string }{
		{"no_cluster", ""},
		{"cluster", `CREATE ATOM_CLUSTER cl ON brep-face-edge-point`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db, _ := benchSceneConfig(b, Config{BufferBytes: 64 << 10}, n)
			if tc.ldl != "" {
				if _, err := db.Exec(tc.ldl); err != nil {
					b.Fatal(err)
				}
			}
			sys := db.System()
			sys.SetAtomCacheSize(-1)
			checkout := func(i int) {
				res, err := db.ExecOne(fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i%n+1))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Molecules) != 1 || res.Molecules[0].Size() != brepgen.CubeAtoms {
					b.Fatalf("brep_no = %d: %d molecules", i%n+1, len(res.Molecules))
				}
			}
			sys.Files().ResetStats()
			for i := 0; i < n; i++ {
				checkout(i)
			}
			blocks[tc.name] = sys.Files().Stats().BlocksTransferred()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checkout(i)
			}
			b.ReportMetric(float64(blocks[tc.name])/n, "blocks/molecule")
		})
	}
	if c, nc := blocks["cluster"], blocks["no_cluster"]; len(blocks) == 2 && c >= nc {
		b.Fatalf("one pass over %d molecules moved %d device blocks through the atom cluster, %d without: the cluster must move fewer", n, c, nc)
	}
}

// BenchmarkReadAfterLoad reads a design straight after loading it, with no
// checkpoint between: 300 cubes under a 256 KiB buffer, the atom cache off,
// four reads in five going to a fifth of the cubes. With the write-ahead log
// on, replacement keeps dirty pages back for the checkpoint, and log growth
// never brings one to a database that stopped writing; the benchmark fails
// unless the load's dirty pages leave the buffer to the reads about as
// plain LRU does without a log.
func BenchmarkReadAfterLoad(b *testing.B) {
	const n, reads = 300, 2000
	misses := map[string]float64{}
	for _, tc := range []struct {
		name string
		wal  bool
	}{{"no_log", false}, {"log", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{BufferBytes: 256 << 10}
			if tc.wal {
				cfg.WAL, cfg.Dir = true, b.TempDir()
			}
			db, _ := benchSceneConfig(b, cfg, n)
			sys := db.System()
			sys.SetAtomCacheSize(-1)
			checkout := func(i int) {
				k := i * 7919 % n
				if i%5 != 0 {
					k = i * 7919 % (n / 5)
				}
				res, err := db.ExecOne(fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, k+1))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Molecules) != 1 {
					b.Fatalf("brep_no = %d: %d molecules", k+1, len(res.Molecules))
				}
			}
			before := sys.Pool().Stats().Misses
			for i := 0; i < reads; i++ {
				checkout(i)
			}
			misses[tc.name] = float64(sys.Pool().Stats().Misses-before) / reads
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checkout(i)
			}
			b.ReportMetric(misses[tc.name], "misses/molecule")
		})
	}
	if l, nl := misses["log"], misses["no_log"]; len(misses) == 2 && l > 1.25*nl {
		b.Fatalf("reading a design just loaded missed %.2f times per molecule with the log on, %.2f with it off", l, nl)
	}
}

// BenchmarkSortScanModes (A2): sorted reads with and without a sort order.
func BenchmarkSortScanModes(b *testing.B) {
	setup := func(b *testing.B, ldl bool) *DB {
		db, err := Open(Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
			b.Fatal(err)
		}
		sys := db.System()
		for i := 0; i < 2000; i++ {
			if _, err := sys.Insert("solid", map[string]atom.Value{
				"solid_no": atom.Int(int64((i * 7919) % 100000)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if ldl {
			if err := sys.CreateSortOrder(&catalog.SortOrderDef{Name: "so", AtomType: "solid", Attrs: []string{"solid_no"}}); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	b.Run("explicit_sort", func(b *testing.B) {
		db := setup(b, false)
		sys := db.System()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := sys.SortedTypeScan("solid", []string{"solid_no"}, false, nil, func(*access.Atom) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sort_order", func(b *testing.B) {
		db := setup(b, true)
		sys := db.System()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := sys.SortScan("so", nil, nil, nil, func(*access.Atom) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartitionProjection (A3): projected reads with and without a
// covering partition.
func BenchmarkPartitionProjection(b *testing.B) {
	for _, part := range []bool{false, true} {
		name := "primary"
		if part {
			name = "partition"
		}
		b.Run(name, func(b *testing.B) {
			db, err := Open(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
				b.Fatal(err)
			}
			sys := db.System()
			var addrs []LogicalAddr
			wide := make([]byte, 400)
			for i := range wide {
				wide[i] = 'x'
			}
			for i := 0; i < 1000; i++ {
				a, err := sys.Insert("solid", map[string]atom.Value{
					"solid_no":    atom.Int(int64(i)),
					"description": atom.Str(string(wide)),
				})
				if err != nil {
					b.Fatal(err)
				}
				addrs = append(addrs, a)
			}
			if part {
				if err := sys.CreatePartition(&catalog.PartitionDef{Name: "p", AtomType: "solid", Attrs: []string{"solid_no"}}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Get(addrs[i%len(addrs)], []string{"solid_no"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeferredUpdate (A4): update cost with redundancy under deferred
// propagation, against propagation drains. update_deferred reports the
// propagation tasks its updates queued.
func BenchmarkDeferredUpdate(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		b.Fatal(err)
	}
	sys := db.System()
	var addrs []LogicalAddr
	for i := 0; i < 1000; i++ {
		a, err := sys.Insert("solid", map[string]atom.Value{"solid_no": atom.Int(int64(i))})
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := sys.CreateSortOrder(&catalog.SortOrderDef{Name: "so", AtomType: "solid", Attrs: []string{"solid_no"}}); err != nil {
		b.Fatal(err)
	}
	if err := sys.CreatePartition(&catalog.PartitionDef{Name: "p", AtomType: "solid", Attrs: []string{"description"}}); err != nil {
		b.Fatal(err)
	}
	b.Run("update_deferred", func(b *testing.B) {
		if err := sys.PropagateDeferred(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Update(addrs[i%len(addrs)], map[string]atom.Value{"description": atom.Str(fmt.Sprintf("v%d", i))}); err != nil {
				b.Fatal(err)
			}
		}
		// The redundant records the updates left stale, one task each.
		b.ReportMetric(float64(sys.PendingDeferred()), "pending-tasks")
	})
	b.Run("propagate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := sys.Update(addrs[i%len(addrs)], map[string]atom.Value{"description": atom.Str(fmt.Sprintf("w%d", i))}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := sys.PropagateDeferred(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchParallelMaterialization is the multi-level molecule scan shared by
// BenchmarkParallelMaterialization and the CI bench gate. The scan's 64
// roots are one chunk, so at GOMAXPROCS procs the cursor reads ahead on
// min(procs, 8) workers, and at 1 assembles inline.
func benchParallelMaterialization(b *testing.B, procs int) {
	db := benchScene(b, 64, "")
	withProcs(b, procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := db.Query(`SELECT ALL FROM brep-face-edge-point`)
		if err != nil {
			b.Fatal(err)
		}
		mols, err := cur.Collect()
		cur.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(mols) != 64 {
			b.Fatal("lost molecules")
		}
	}
}

// BenchmarkParallelMaterialization pits the streaming, parallel molecule
// materialization pipeline against the serial cursor on a multi-level
// molecule scan — the acceptance benchmark of the pipeline refactor: on a
// multi-core host the parallel cursor should deliver the same molecule set
// at a multiple of the serial rate (speedup requires multiple CPUs; see
// EXPERIMENTS.md).
func BenchmarkParallelMaterialization(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchParallelMaterialization(b, 1) })
	b.Run("parallel8", func(b *testing.B) { benchParallelMaterialization(b, 8) })
}

// benchSnapshotScanUnderDML runs the molecule scan while a writer goroutine
// continuously mutates the scanned atoms and churns unrelated ones: every
// cursor reads at its open epoch, so the molecule count must hold exactly.
func benchSnapshotScanUnderDML(b *testing.B, procs int) {
	db := benchScene(b, 64, "")
	withProcs(b, procs)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			script := fmt.Sprintf(
				`MODIFY face SET square_dim = %d.5 WHERE square_dim > 0.0;
				 INSERT INTO solid (solid_no) VALUES (%d);
				 DELETE FROM solid WHERE solid_no = %d`,
				i%100, 100000+i, 100000+i)
			if _, err := db.Exec(script); err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := db.Query(`SELECT ALL FROM brep-face-edge-point`)
		if err != nil {
			b.Fatal(err)
		}
		mols, err := cur.Collect()
		cur.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(mols) != 64 {
			b.Fatalf("scan under DML delivered %d molecules, want 64", len(mols))
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		b.Fatalf("concurrent DML: %v", err)
	default:
	}
}

// BenchmarkSnapshotScanUnderDML is the acceptance benchmark of snapshot-
// isolated cursors: parallel assembly keeps its read-ahead win while mixed
// DELETE/MODIFY/INSERT traffic runs against the scanned set, because
// snapshots make the interleaving safe — no result drift, no torn molecules
// (speedup requires multiple CPUs; see EXPERIMENTS.md).
func BenchmarkSnapshotScanUnderDML(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchSnapshotScanUnderDML(b, 1) })
	b.Run("parallel8", func(b *testing.B) { benchSnapshotScanUnderDML(b, 8) })
}

// BenchmarkSemanticParallelism (A5): GOMAXPROCS sweep over a molecule-set
// query, whose cursor reads ahead on one worker per proc (speedup requires
// multiple CPUs; see EXPERIMENTS.md).
func BenchmarkSemanticParallelism(b *testing.B) {
	db := benchScene(b, 32, `CREATE ATOM_CLUSTER cl ON brep-face-edge-point`)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			withProcs(b, workers)
			for i := 0; i < b.N; i++ {
				cur, err := db.Query(`SELECT ALL FROM brep-face-edge-point`)
				if err != nil {
					b.Fatal(err)
				}
				mols, err := cur.Collect()
				cur.Close()
				if err != nil {
					b.Fatal(err)
				}
				if len(mols) != 32 {
					b.Fatal("lost molecules")
				}
			}
		})
	}
}

// BenchmarkNestedTxThroughput (A7): inserts under autocommit, commit, abort.
func BenchmarkNestedTxThroughput(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		b.Fatal(err)
	}
	b.Run("autocommit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.ExecOne(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tx_commit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx := db.Begin()
			if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, 1000000+i)); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tx_abort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx := db.Begin()
			if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, 2000000+i)); err != nil {
				b.Fatal(err)
			}
			if err := tx.Abort(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelectivePredicate tracks the compiled predicate pipeline on a
// brepgen workload. "low" is a low-selectivity WHERE (few molecules
// qualify): the range access path prunes roots before assembly and the
// pushed edge conjunct prunes survivors mid-assembly. "high" qualifies
// nearly everything, so it isolates compiled predicate evaluation.
func BenchmarkSelectivePredicate(b *testing.B) {
	const n = 128
	for _, sel := range []struct{ name, where string }{
		{"low", `brep_no <= 6 AND edge.length > 4.5`},
		{"high", fmt.Sprintf(`brep_no <= %d AND edge.length > 0.5`, n)},
	} {
		b.Run(sel.name, func(b *testing.B) {
			db := benchScene(b, n, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
			q := `SELECT ALL FROM brep-face-edge-point WHERE ` + sel.where
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecOne(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRepeatedCheckout is the repeated-checkout hot loop shared by
// BenchmarkRepeatedCheckout and the CI allocation gate: the same design
// objects are checked out over and over (the dominant CAD/FEA access
// pattern), cycling over the scene so the whole working set stays live.
// atomCache <= 0 disables the atom cache (the baseline).
func benchRepeatedCheckout(b *testing.B, atomCache int) {
	const n = 32
	db := benchScene(b, n, "")
	db.System().SetAtomCacheSize(atomCache)
	queries := make([]string, n)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, i+1)
	}
	// Warm plan cache and (when enabled) atom cache.
	for _, q := range queries {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(queries[i%n])
		if err != nil {
			b.Fatal(err)
		}
		if len(res[0].Molecules) != 1 {
			b.Fatal("lost molecule")
		}
	}
}

// BenchmarkRepeatedCheckout measures warm repeated molecule checkout with
// the atom cache disabled vs. enabled — the acceptance benchmark of
// the cache: a hit serves assembly without page fixes or codec runs, so the
// enabled path must deliver both a wall-clock and an allocs/op win.
func BenchmarkRepeatedCheckout(b *testing.B) {
	b.Run("cache_off", func(b *testing.B) { benchRepeatedCheckout(b, 0) })
	b.Run("cache_on", func(b *testing.B) { benchRepeatedCheckout(b, 1<<16) })
}

// BenchmarkPlanCache measures single-statement execution through the plan
// cache with the same literal on every op and with a new literal on every
// op. Both are served by one prepared shape — the second binds its literal
// at open — and return the same molecule.
func BenchmarkPlanCache(b *testing.B) {
	const q = `SELECT brep_no FROM brep
	      WHERE brep_no = 7 AND (hull <> EMPTY OR brep_no > %d)`
	for _, tc := range []struct {
		name  string
		bound func(i int) int
	}{
		{"same_literal", func(int) int { return 100 }},
		{"new_literal", func(i int) int { return 100 + i }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := benchScene(b, 8, `CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(fmt.Sprintf(q, tc.bound(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVLSITraversal exercises symmetric n:m traversal on a netlist.
func BenchmarkVLSITraversal(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(vlsigen.SchemaDDL); err != nil {
		b.Fatal(err)
	}
	if _, err := vlsigen.Build(db.Engine(), 100, 4, 30, 1); err != nil {
		b.Fatal(err)
	}
	b.Run("cell_to_net", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf(`SELECT ALL FROM cell-pin-net WHERE name = 'u%d'`, i%100)
			if _, err := db.ExecOne(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("net_to_cell", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf(`SELECT ALL FROM net-pin-cell WHERE signal = 'sig%d'`, i%30)
			if _, err := db.ExecOne(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGISRegionQuery exercises the grid access path.
func BenchmarkGISRegionQuery(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(mapgen.SchemaDDL); err != nil {
		b.Fatal(err)
	}
	if _, err := mapgen.Build(db.Engine(), 2, 5, 100, 7); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ACCESS PATH xy ON site (x, y) USING GRID`); err != nil {
		b.Fatal(err)
	}
	lo, hi := atom.Real(25), atom.Real(75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := db.System().AccessPathScan("xy",
			[]mdindex.Range{{Start: &lo, Stop: &hi}, {Start: &lo, Stop: &hi}},
			func([]atom.Value, LogicalAddr) bool { n++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchGroupCommit drives concurrent single-insert transactions through a
// WAL-enabled database and reports how many fsyncs each durable commit cost:
// group commit lets simultaneous committers share one log flush, so with many
// committers the ratio falls well below one.
func benchGroupCommit(b *testing.B, committers int) {
	db, err := Open(Config{Dir: b.TempDir(), WAL: true, GroupCommitMaxWait: 500 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		b.Fatal(err)
	}
	before, ok := db.System().WALStats()
	if !ok {
		b.Fatal("WAL not enabled")
	}
	var next int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i > int64(b.N) {
					return
				}
				tx := db.Begin()
				if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, i)); err != nil {
					b.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	after, _ := db.System().WALStats()
	if commits := after.Commits - before.Commits; commits > 0 {
		b.ReportMetric(float64(after.Syncs-before.Syncs)/float64(commits), "fsyncs/commit")
	}
}

// BenchmarkGroupCommit: durable commit throughput as committers scale — the
// acceptance benchmark of group commit (fsyncs/commit is the headline metric).
func BenchmarkGroupCommit(b *testing.B) {
	for _, committers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("committers%d", committers), func(b *testing.B) {
			benchGroupCommit(b, committers)
		})
	}
}

// TestGroupCommitFsyncAmortization is the group-commit acceptance test: 16
// concurrent committers must share log flushes heavily enough that a durable
// commit costs less than half an fsync on average.
func TestGroupCommitFsyncAmortization(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), WAL: true, GroupCommitMaxWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	before, ok := db.System().WALStats()
	if !ok {
		t.Fatal("WAL not enabled")
	}
	const committers, each = 16, 25
	var wg sync.WaitGroup
	errc := make(chan error, committers)
	for g := 0; g < committers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := db.Begin()
				if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO solid (solid_no) VALUES (%d)`, g*each+i)); err != nil {
					errc <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	after, _ := db.System().WALStats()
	commits := after.Commits - before.Commits
	syncs := after.Syncs - before.Syncs
	if commits != committers*each {
		t.Fatalf("%d commits recorded, want %d", commits, committers*each)
	}
	ratio := float64(syncs) / float64(commits)
	t.Logf("%d commits in %d batches, %d log syncs: %.3f fsyncs/commit",
		commits, after.Batches-before.Batches, syncs, ratio)
	if ratio >= 0.5 {
		t.Fatalf("fsyncs/commit = %.3f, want < 0.5 (group commit not amortizing)", ratio)
	}
}
