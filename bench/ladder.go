package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/mql"
	"prima/internal/storage/device"
	"prima/internal/storage/segment"
	"prima/internal/storage/wal"
	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

// The traced run measures every layer from outside, by timing calls into its
// public functions. It replays the first requests of the workload on one
// goroutine, once per rung of the ladder
//
//	wire     Client.Checkout
//	core     Engine.PlanQuery, Plan.Open, Cursor.Collect
//	access   Snapshot.GetBatch over the molecule's addresses, level by level
//	storage  Pool.Fix and Unfix on the pages the directory maps them to
//
// and records one span per request and rung; a request's span at one rung is
// the parent of its span at the rung below. A rung's self time is its span
// minus the rung below, so the self times of the four rungs sum to the wire
// span by construction. Each rung replays the whole sequence before the next
// one starts: run back to back on one request, a lower rung would find the
// caches warmed by the rung above it and the cold workload would measure
// nothing. Checkin ops of the sequence go through the wire client in every
// pass, so that every rung reads beside the same writes.

// span is one timed call into a layer.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the ladder started
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 at the top
	Request int    `json:"request"`
}

// selfTimes sums, per span name, each span's duration minus the durations
// of the spans it is the parent of.
func selfTimes(spans []span) map[string]int64 {
	self := map[string]int64{}
	for _, sp := range spans {
		self[sp.Name] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[spans[sp.Parent].Name] -= sp.End - sp.Start
		}
	}
	return self
}

var rungs = []string{"wire", "core", "access", "storage"}

// countingConn counts the bytes of one client connection.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// ladder is the state of one traced run.
type ladder struct {
	s     *session
	lc    *client // the ladder's own wire client, on a counted connection
	bytes atomic.Int64
	start time.Time
	reqs  []request
	spans []span
	top   []int // per request, the index of its span at the rung above

	scene  []int                  // every cube number
	levels [][][]addr.LogicalAddr // per cube: brep, faces, edges, points
	segs   map[addr.TypeID]segment.ID

	planNs, assembleNs []int64
	molecules          int64
	coreMallocs        uint64
	fixHitNs, fixMiss  []int64
}

// traced runs the ladder and the write probe, fills in the per-layer
// metrics and writes bench/out/trace-<workload>.json. win and wd are the untraced
// window of the same run: every counter ratio is taken over it, where
// reading a counter costs nothing, and the spans come from the ladder.
func (s *session) traced(rep *report, win *phase, wd delta) error {
	l := &ladder{s: s, start: time.Now()}
	wc, err := wire.DialConfig(s.env.srv.Addr(), wire.ClientConfig{Dialer: func(address string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", address, wire.DefaultDialTimeout)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, &l.bytes}, nil
	}})
	if err != nil {
		return fmt.Errorf("dial ladder client: %w", err)
	}
	defer wc.Close()
	l.reqs = generate(s.w, s.seed, 0, len(s.clients), s.w.ladder)
	l.lc = &client{wc: wc, oracle: s.oracle, rev: 1_000_000, rec: newRecorder(l.start, 8*len(l.reqs))}
	if err := l.locate(); err != nil {
		return err
	}

	m := rep.metrics
	ops := float64(win.ops())
	m["wire.shed_ratio"] = wd.n("wire_shed") / wd.n("wire_requests")
	m["core.plan_cache_hit_ratio"] = ratio(wd.n("plan_cache_hits"), wd.n("plan_cache_misses"))
	m["access.atom_cache_hit_ratio"] = ratio(wd.n("atom_cache_hits"), wd.n("atom_cache_misses"))
	m["storage.buffer_hit_ratio"] = ratio(wd.n("buffer_hits"), wd.n("buffer_misses"))
	m["storage.buffer_evictions_per_op"] = wd.n("buffer_evictions") / ops
	m["storage.device_reads_per_op"] = wd.n("io_blocks_read") / ops
	m["storage.device_writes_per_op"] = wd.n("buffer_writebacks") / ops
	m["storage.checkpoints"] = wd.n("wal_checkpoints")
	m["runtime.gc_pause_ms"] = float64(wd.gcPause().Microseconds()) / 1e3 / wd.to.at.Sub(wd.from.at).Seconds()
	m["runtime.heap_mb"] = float64(wd.to.mem.HeapInuse) / (1 << 20)

	pings := make([]int64, 1000)
	for i := range pings {
		t0 := time.Now()
		if err := wc.Ping(); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		pings[i] = int64(time.Since(t0))
	}
	m["wire.ping_us"] = float64(medianInt64(pings)) / 1e3

	// The same replay with and without span recording is the tracing
	// overhead; both go over the wire on this one client.
	l.top = make([]int, len(l.reqs))
	plain := l.pass("")
	checkouts := 0
	for _, r := range l.reqs {
		if !r.checkin {
			checkouts++
		}
	}
	var traced time.Duration
	for _, rung := range rungs {
		before, opsBefore := l.bytes.Load(), len(l.lc.rec.atoms)
		d := l.pass(rung)
		if rung == "wire" {
			traced = d
			var atoms int64
			for _, n := range l.lc.rec.atoms[opsBefore:] {
				atoms += int64(n)
			}
			m["wire.bytes_per_atom"] = float64(l.bytes.Load()-before) / float64(atoms)
		}
	}
	m["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()

	self := selfTimes(l.spans)
	perCheckout := func(name string) float64 { return float64(self[name]) / 1e3 / float64(checkouts) }
	m["wire.self_us_per_checkout"] = perCheckout("wire")
	m["core.self_us_per_checkout"] = perCheckout("core")
	m["access.self_us_per_checkout"] = perCheckout("access")
	m["storage.self_us_per_checkout"] = perCheckout("storage")
	var accessNs, assembleNs int64
	for _, sp := range l.spans {
		if sp.Name == "access" {
			accessNs += sp.End - sp.Start
		}
	}
	for _, ns := range l.assembleNs {
		assembleNs += ns
	}
	m["core.plan_us"] = float64(medianInt64(l.planNs)) / 1e3
	m["core.assemble_us_per_molecule"] = float64(assembleNs) / 1e3 / float64(l.molecules)
	m["core.allocs_per_molecule"] = float64(l.coreMallocs) / float64(l.molecules)
	m["access.getbatch_us_per_atom"] = float64(accessNs) / 1e3 / float64(l.molecules*brepgen.CubeAtoms)
	m["storage.fix_hit_ns"] = float64(medianInt64(l.fixHitNs))
	m["storage.fix_miss_us"] = float64(medianInt64(l.fixMiss)) / 1e3

	if err := l.parseAndCodec(m); err != nil {
		return err
	}
	if err := l.writeProbe(m); err != nil {
		return err
	}
	m["access.open_snapshots_end"] = float64(s.env.db.OpenSnapshots())
	if n := s.env.db.OpenSnapshots(); n != 0 {
		rep.problem("%d snapshots still open at the end of the run", n)
	}
	rep.count("traced run", merge([]*recorder{l.lc.rec}, time.Since(l.start), 0, 0, 0))
	rep.note("ladder: %d requests (%d checkouts) replayed at %d rungs on one goroutine; %d spans",
		len(l.reqs), checkouts, len(rungs), len(l.spans))
	return l.writeTrace(self, wd)
}

// locate finds, for every cube, the addresses of its atoms level by level,
// and for every atom type the segment of its primary container. The access
// system names that segment's file primary_<type>_<segment id>.seg.
func (l *ladder) locate() error {
	for i, c := range l.s.env.cubes {
		l.scene = append(l.scene, i+1)
		l.levels = append(l.levels, [][]addr.LogicalAddr{{c.Brep}, c.Faces, c.Edges, c.Points})
	}
	l.segs = map[addr.TypeID]segment.ID{}
	entries, err := os.ReadDir(l.s.env.dir)
	if err != nil {
		return err
	}
	schema := l.s.env.db.System().Schema()
	for _, e := range entries {
		rest, ok := strings.CutPrefix(strings.TrimSuffix(e.Name(), ".seg"), "primary_")
		if !ok {
			continue
		}
		i := strings.LastIndexByte(rest, '_')
		if i < 0 {
			continue
		}
		id, err := strconv.ParseUint(rest[i+1:], 10, 32)
		t, found := schema.AtomType(rest[:i])
		if err != nil || !found {
			return fmt.Errorf("segment file %s names no atom type", e.Name())
		}
		l.segs[t.ID] = segment.ID(id)
	}
	return nil
}

// cubesOf returns the cubes a request reads: one, or the whole scene.
func (l *ladder) cubesOf(r request) []int {
	if r.cube != 0 {
		return []int{r.cube}
	}
	return l.scene
}

// pass replays the sequence at one rung and returns how long it took. The
// empty rung is the untraced wire replay.
func (l *ladder) pass(rung string) time.Duration {
	start := time.Now()
	for i, r := range l.reqs {
		if r.checkin || rung == "" {
			l.lc.do(r)
			continue
		}
		var from, to time.Time
		switch rung {
		case "wire":
			l.lc.do(r)
			rec := l.lc.rec
			to = rec.start.Add(time.Duration(rec.done[len(rec.done)-1]))
			from = to.Add(-time.Duration(rec.lat[len(rec.lat)-1]))
		case "core":
			from, to = l.core(r)
		case "access":
			from, to = l.access(r)
		case "storage":
			from, to = l.storage(r)
		}
		parent := -1
		if rung != rungs[0] {
			parent = l.top[i]
		}
		l.top[i] = len(l.spans)
		l.spans = append(l.spans, span{rung, int64(from.Sub(l.start)), int64(to.Sub(l.start)), parent, i})
	}
	return time.Since(start)
}

// fail records a rung-level failure the way a failed op is recorded.
func (l *ladder) fail(t0 time.Time, err error) {
	l.lc.rec.add(opCheckout, t0, time.Since(t0), 0, err)
}

// core does what DB.Query and Collect do, with the plan step timed apart.
func (l *ladder) core(r request) (from, to time.Time) {
	engine := l.s.env.db.Engine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from = time.Now()
	plan, err := engine.PlanQuery(r.mql())
	planned := time.Now()
	n := 0
	if err == nil {
		cur, oerr := plan.Open()
		if err = oerr; err == nil {
			mols, cerr := cur.Collect()
			cur.Close()
			err = cerr
			n = len(mols)
			for _, m := range mols {
				if m.Size() != brepgen.CubeAtoms && err == nil {
					err = fmt.Errorf("core rung: molecule of %d atoms", m.Size())
				}
			}
		}
	}
	to = time.Now()
	runtime.ReadMemStats(&after)
	if want := len(l.cubesOf(r)); err == nil && n != want {
		err = fmt.Errorf("core rung: %d molecules, want %d", n, want)
	}
	if err != nil {
		l.fail(from, err)
	}
	l.planNs = append(l.planNs, int64(planned.Sub(from)))
	l.assembleNs = append(l.assembleNs, int64(to.Sub(planned)))
	l.molecules += int64(n)
	l.coreMallocs += after.Mallocs - before.Mallocs
	return from, to
}

// access reads each molecule the way assembly does: one snapshot, one
// GetBatch per level.
func (l *ladder) access(r request) (from, to time.Time) {
	cubes := l.cubesOf(r)
	from = time.Now()
	sn := l.s.env.db.System().OpenSnapshot()
	var err error
	for _, k := range cubes {
		for _, level := range l.levels[k-1] {
			if _, gerr := sn.GetBatch(level); gerr != nil && err == nil {
				err = gerr
			}
		}
	}
	sn.Close()
	to = time.Now()
	if err != nil {
		l.fail(from, fmt.Errorf("access rung: %w", err))
	}
	return from, to
}

// storage fixes and unfixes every page the directory maps the molecule's
// atoms to, once per level like a batched record read. Which of the fixes
// missed is read from the pool's counters after the span: a miss reads the
// device, so the slowest fixes of the group are the misses.
func (l *ladder) storage(r request) (from, to time.Time) {
	sys := l.s.env.db.System()
	var pages []segment.PageID
	for _, k := range l.cubesOf(r) {
		for _, level := range l.levels[k-1] {
			first := len(pages)
		next:
			for _, a := range level {
				ref, ok := sys.Directory().LookupStruct(a, 0)
				if !ok {
					continue
				}
				pid := segment.PageID{Seg: l.segs[a.Type()], No: ref.Where.Page}
				for _, seen := range pages[first:] {
					if seen == pid {
						continue next
					}
				}
				pages = append(pages, pid)
			}
		}
	}
	fixNs := make([]int64, 0, len(pages))
	missesBefore := sys.Pool().Stats().Misses
	var err error
	from = time.Now()
	for _, pid := range pages {
		t0 := time.Now()
		h, ferr := sys.Pool().Fix(pid)
		fixNs = append(fixNs, int64(time.Since(t0)))
		if ferr != nil {
			err = ferr
			continue
		}
		h.Release()
	}
	to = time.Now()
	if err != nil {
		l.fail(from, fmt.Errorf("storage rung: %w", err))
	}
	misses := int(sys.Pool().Stats().Misses - missesBefore)
	sortInt64(fixNs)
	hits := max(len(fixNs)-misses, 0)
	l.fixHitNs = append(l.fixHitNs, fixNs[:hits]...)
	l.fixMiss = append(l.fixMiss, fixNs[hits:]...)
	return from, to
}

// parseAndCodec times the pure functions of the stack over the sequence's
// statements and atoms: mql.Parse, atom.AppendAtom and atom.DecodeAtomOwned.
func (l *ladder) parseAndCodec(m map[string]float64) error {
	var parseNs []int64
	for _, r := range l.reqs {
		t0 := time.Now()
		if _, err := mql.Parse(r.mql()); err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		parseNs = append(parseNs, int64(time.Since(t0)))
	}
	m["mql.parse_us"] = float64(medianInt64(parseNs)) / 1e3

	sys := l.s.env.db.System()
	var encodeNs, decodeNs, atoms int64
	var buf []byte
	for _, r := range l.reqs[:min(len(l.reqs), 200)] {
		if r.cube == 0 {
			r.cube = 1
		}
		for _, level := range l.levels[r.cube-1] {
			got, err := sys.GetBatch(level, nil)
			if err != nil {
				return fmt.Errorf("codec: %w", err)
			}
			recs := make([][]byte, len(got))
			t0 := time.Now()
			for i, at := range got {
				buf = atom.AppendAtom(buf[:0], at.Values)
				recs[i] = append([]byte(nil), buf...)
			}
			t1 := time.Now()
			for _, rec := range recs {
				if _, err := atom.DecodeAtomOwned(rec); err != nil {
					return fmt.Errorf("codec: %w", err)
				}
			}
			decodeNs += int64(time.Since(t1))
			encodeNs += int64(t1.Sub(t0))
			atoms += int64(len(got))
		}
	}
	m["access.encode_us_per_atom"] = float64(encodeNs) / 1e3 / float64(atoms)
	m["access.decode_us_per_atom"] = float64(decodeNs) / 1e3 / float64(atoms)
	return nil
}

// probeCubes is how many cubes each step of the write probe modifies.
const probeCubes = 100

// writeProbe measures the write side layer by layer on this scene: wire
// checkins with the counters they move, System.Update, a durable
// transaction commit, and append and fsync on a scratch log. Every write
// keeps the oracle in step, so the restart check still holds afterwards.
func (l *ladder) writeProbe(m map[string]float64) error {
	db := l.s.env.db
	sys := db.System()
	cube := 0
	nextCube := func() int {
		cube = cube%l.s.w.cubes + 1
		return cube
	}

	before := readCounters(db)
	for i := 0; i < 3*probeCubes; i++ {
		l.lc.do(request{cube: nextCube(), checkin: true})
	}
	d := delta{before, readCounters(db)}
	checkins := float64(3 * probeCubes)
	m["access.invalidations_per_checkin"] = d.n("atom_cache_invalidations") / checkins
	m["storage.wal_bytes_per_checkin"] = d.n("wal_bytes") / checkins
	m["storage.wal_fsyncs_per_checkin"] = d.n("wal_syncs") / checkins

	var updateNs, commitNs []int64
	for i := 0; i < probeCubes; i++ {
		k := nextCube()
		l.lc.rev++
		for _, f := range l.revised(k) {
			t0 := time.Now()
			if err := sys.Update(f, map[string]atom.Value{"square_dim": atom.Real(l.lc.rev)}); err != nil {
				return fmt.Errorf("update probe: %w", err)
			}
			updateNs = append(updateNs, int64(time.Since(t0)))
		}
		l.s.oracle.acked(k, l.lc.rev)
	}
	m["access.update_us"] = float64(medianInt64(updateNs)) / 1e3

	for i := 0; i < probeCubes; i++ {
		k := nextCube()
		l.lc.rev++
		var script strings.Builder
		for _, f := range l.revised(k) {
			fmt.Fprintf(&script, "MODIFY face SET square_dim = %v WHERE face_id = @%d.%d;\n", l.lc.rev, f.Type(), f.Seq())
		}
		t0 := time.Now()
		tx := db.Begin()
		if _, err := tx.Exec(script.String()); err != nil {
			tx.Abort()
			return fmt.Errorf("commit probe: %w", err)
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit probe: %w", err)
		}
		commitNs = append(commitNs, int64(time.Since(t0)))
		l.s.oracle.acked(k, l.lc.rev)
	}
	m["txn.commit_us"] = float64(medianInt64(commitNs)) / 1e3

	return l.walProbe(m)
}

// revised returns the faces of cube k a checkin modifies.
func (l *ladder) revised(k int) []addr.LogicalAddr {
	faces := append([]addr.LogicalAddr(nil), l.s.env.cubes[k-1].Faces...)
	sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })
	return faces[:revisedFaces]
}

// walProbe appends update records of a face's size to a scratch log beside
// the database and forces it every tenth record.
func (l *ladder) walProbe(m map[string]float64) error {
	face, err := l.s.env.db.System().Get(l.s.env.cubes[0].Faces[0], nil)
	if err != nil {
		return err
	}
	image := atom.EncodeAtom(face.Values)
	dir := filepath.Join(filepath.Dir(l.s.env.dir), "scratch-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := device.NewManager(dir)
	defer files.Close()
	log, err := wal.Open(files, wal.Options{CheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer log.Close()
	if _, err := log.Recover(nil); err != nil {
		return err
	}
	var appendNs, fsyncNs []int64
	for i := 0; i < 1000; i++ {
		rec := &wal.Record{Kind: wal.RecUpdate, Addr: uint64(face.Addr), TypeName: "face", Undo: image, Redo: image}
		t0 := time.Now()
		lsn, err := log.Append(rec)
		if err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		appendNs = append(appendNs, int64(time.Since(t0)))
		if i%10 == 9 {
			t0 = time.Now()
			if err := log.FlushTo(lsn + 1); err != nil {
				return fmt.Errorf("wal probe: %w", err)
			}
			fsyncNs = append(fsyncNs, int64(time.Since(t0)))
		}
	}
	m["storage.wal_append_us"] = float64(medianInt64(appendNs)) / 1e3
	m["storage.wal_fsync_us"] = float64(medianInt64(fsyncNs)) / 1e3
	return nil
}

// writeTrace writes the spans, the self times and the window's counter
// deltas to bench/out/trace-<workload>.json.
func (l *ladder) writeTrace(self map[string]int64, wd delta) error {
	counts := map[string]float64{}
	for name := range wd.to.db.Counters {
		counts[name] = wd.n(name)
	}
	trace := struct {
		Workload string             `json:"workload"`
		Rungs    []string           `json:"rungs"`
		SelfNs   map[string]int64   `json:"self_ns"`
		Window   map[string]float64 `json:"window_counter_deltas"`
		Spans    []span             `json:"spans"`
	}{l.s.w.name, rungs, self, counts, l.spans}
	data, err := json.Marshal(trace)
	if err != nil {
		return err
	}
	out := filepath.Join("bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+l.s.w.name+".json"), data, 0o644)
}
