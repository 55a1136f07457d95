package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"prima/internal/access"
	"prima/internal/access/atom"
	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

// An untraced run sets the scene up again after everything else, so that the
// repeats do not count in peak_rss_mb: at least minSetups times in all, and
// on until the set-ups have taken setupBudget together. setup_s is the
// median.
const (
	minSetups   = 3
	setupBudget = 2 * time.Second
)

// windowSlices is how many slices the window is cut into for the
// steady-state guard and the report's notes.
const windowSlices = 12

// pageSize is prima.Config's default PageSize, which every workload runs.
const pageSize = 8192

// atomTypes are the five atom types of the BREP schema.
var atomTypes = []string{"solid", "brep", "face", "edge", "point"}

// The steady-state guard compares the ops completed in the window's last
// third with those in its first third. A window outside driftBand did not
// measure a steady state: it is measured again, and the run fails when the
// last of windowTries windows is outside too. The machines this runs on
// change speed in steps of a quarter or more that last for seconds (README,
// "Steadiness": 2 of 40 windows of unchanged code held such a step), which
// the next window does not repeat; a ramp the program causes is there in
// every window.
var driftBand = [2]float64{0.9, 1.1}

const windowTries = 5

func steady(drift float64) bool { return drift >= driftBand[0] && drift <= driftBand[1] }

// report is the outcome of one run of one workload.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	stale     int64 // see oracle
	// problems lists what makes the run incorrect: oracle violations,
	// mis-sized scenes, drift. Any entry makes the command exit non-zero.
	problems []string
	notes    []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds one phase's ops to the run's totals.
func (r *report) count(name string, p *phase) {
	r.attempted += int64(p.ops())
	r.failed += p.failed
	r.stale += p.stale
	if p.err != nil {
		r.problem("%s: %d of %d ops failed, first: %v", name, p.failed, p.ops(), p.err)
	}
}

// session is one served scene with its clients and its oracle.
type session struct {
	w       workload
	seed    int64
	env     *env
	oracle  *oracle
	clients []*client
}

// openSession connects as many clients as the machine has processors, at
// most two. The checkin tail uses them all; the window uses the first
// w.clients of them.
func openSession(w workload, e *env, seed int64) (*session, error) {
	n := min(2, runtime.NumCPU())
	o := newOracle(w.cubes)
	clients, err := dialClients(e, w, seed, n, o)
	if err != nil {
		return nil, err
	}
	return &session{w: w, seed: seed, env: e, oracle: o, clients: clients}, nil
}

// windowClients are the clients that drive the measured window.
func (s *session) windowClients() []*client {
	return s.clients[:min(s.w.clients, len(s.clients))]
}

// closeClients closes the clients and lets go of them, object buffers and
// all.
func (s *session) closeClients() {
	for _, c := range s.clients {
		c.wc.Close()
	}
	s.clients = nil
}

// measure runs one recorded phase between two counter readings.
func (s *session) measure(clients []*client, d time.Duration, slices int) (*phase, delta) {
	// Room for 20,000 ops per second and client; a faster client grows it.
	capacity := int(d.Seconds()*20_000) + 1
	from := readCounters(s.env.db)
	p := runPhase(clients, d, slices, capacity)
	return p, delta{from, readCounters(s.env.db)}
}

// sizingProblems checks that the scene has the size relative to the caches
// that the workload is defined by: one that fits must not touch the device
// at all, one that overflows must evict pages and miss the atom cache.
func sizingProblems(w workload, d delta) []string {
	var out []string
	reads, evictions := d.n("io_blocks_read"), d.n("buffer_evictions")
	hit := ratio(d.n("atom_cache_hits"), d.n("atom_cache_misses"))
	if w.overflows {
		if evictions == 0 {
			out = append(out, fmt.Sprintf("%s is mis-sized: no buffer evictions in the window", w.name))
		}
		if hit >= 0.5 {
			out = append(out, fmt.Sprintf("%s is mis-sized: atom-cache hit ratio %.3f >= 0.5", w.name, hit))
		}
		return out
	}
	if reads != 0 || evictions != 0 {
		out = append(out, fmt.Sprintf("%s is mis-sized: %.0f device block reads and %.0f buffer evictions in the window, want 0 and 0", w.name, reads, evictions))
	}
	return out
}

// options are the arguments of one run.
type options struct {
	seed   int64
	window time.Duration
	trace  bool
}

// run sets the workload up, warms it, measures it and checks it.
func run(w workload, opt options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	warm, tail := opt.window/6, opt.window*2/5

	workDir := filepath.Join("bench", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(workDir)
	e, firstSetup, err := setup(filepath.Join(workDir, "0"), w.cubes)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { e.close() }()
	s, err := openSession(w, e, opt.seed)
	if err != nil {
		return nil, err
	}
	defer s.closeClients()
	rep.note("scene: %d cubes, %d atoms; %d closed-loop clients in the window, %d in the checkin tail; GOMAXPROCS %d; seed %d",
		w.cubes, w.cubes*brepgen.CubeAtoms, len(s.windowClients()), len(s.clients), runtime.GOMAXPROCS(0), opt.seed)
	rep.note("flush policy: %s", flushPolicy)

	rep.count("warm-up sweep", sweep(s.clients, w.cubes))
	rep.count("warm-up", runPhase(s.windowClients(), warm, 0, 1))
	runtime.GC()
	var win *phase
	var wd delta
	var drift float64
	for try := 1; ; try++ {
		win, wd = s.measure(s.windowClients(), opt.window, windowSlices)
		rep.count("window", win)
		drift = win.drift()
		rep.note("window %d: ops in each twelfth %v; last third / first third %.3f", try, win.sliceOps, drift)
		if steady(drift) || try == windowTries {
			break
		}
	}
	writes, writesDelta := win, wd
	if w.checkinShare == 0 {
		// The window is read-only: a checkin tail on the same scene defines
		// the write-side metrics and gives the reopen check acks to verify.
		for i, c := range s.clients {
			c.reqs, c.next = generate(checkinTail(w), opt.seed, i, len(s.clients), sequenceLen), 0
		}
		writes, writesDelta = s.measure(s.clients, tail, 0)
		rep.count("checkin tail", writes)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.note("window: %d checkouts and %d checkins in %.2fs; checkin metrics from %d checkins in %.2fs",
		len(win.checkout), len(win.checkin), win.dur.Seconds(), len(writes.checkin), writes.dur.Seconds())

	rep.problems = append(rep.problems, sizingProblems(w, wd)...)
	if !steady(drift) {
		rep.problem("no steady state: last third / first third = %.3f in the last of %d windows, outside [%.1f, %.1f]",
			drift, windowTries, driftBand[0], driftBand[1])
	}

	if opt.trace {
		if err := s.traced(rep, win, wd); err != nil {
			return nil, err
		}
	}
	s.closeClients()
	space, faceBytes, err := s.verifyAfterRestart(rep)
	if err != nil {
		return nil, err
	}

	rep.note("%d of %d ops failed; %d reads beside another client's checkin were stale by one acknowledged revision (see README, known semantics)",
		rep.failed, rep.attempted, rep.stale)
	if limit := int64(len(writes.checkin)) / staleShare; rep.stale > limit {
		rep.problem("%d stale reads, more than one per %d checkins: not the known anomaly", rep.stale, staleShare)
	}
	if opt.trace {
		rep.metrics["access.stale_reads"] = float64(rep.stale)
		rep.metrics["run.drift_ratio"] = drift
		rep.metrics["run.failed_ratio"] = float64(rep.failed) / float64(rep.attempted)
		return rep, nil
	}

	if err := e.close(); err != nil {
		return nil, err
	}
	setupNs, err := repeatSetup(workDir, w.cubes, firstSetup)
	if err != nil {
		return nil, err
	}
	rep.note("set up %d times: setup_s is the median", len(setupNs))
	m := rep.metrics
	m["setup_s"] = time.Duration(medianInt64(setupNs)).Seconds()
	m["checkout_p50_ms"] = ms(win.checkout, 50)
	m["checkout_p99_ms"] = ms(win.checkout, 99)
	m["checkout_per_s"] = win.perSecond(len(win.checkout))
	m["atoms_per_s"] = win.perSecond(int(win.atoms))
	m["checkin_p50_ms"] = ms(writes.checkin, 50)
	m["checkin_p95_ms"] = ms(writes.checkin, 95)
	m["checkin_per_s"] = writes.perSecond(len(writes.checkin))
	m["cpu_us_per_op"] = float64(win.cpu.Microseconds()) / float64(win.ops())
	m["allocs_per_op"] = wd.mallocs() / float64(win.ops())
	m["peak_rss_mb"] = rss
	m["space_amp"] = space
	written := writesDelta.n("wal_bytes") + writesDelta.n("buffer_writebacks")*pageSize
	m["write_amp"] = written / (float64(len(writes.checkin)) * revisedFaces * faceBytes)
	return rep, nil
}

// staleShare bounds the stale reads a run may count: one per staleShare
// checkins. The known anomaly showed about one per 100,000; a lost
// invalidation or a broken snapshot shows one per few.
const staleShare = 1000

// repeatSetup sets the scene up again under dir until the set-ups, the
// run's own first one included, are enough for a median, and returns
// how long each took. The session is closed by now, so each repeat starts
// from as small a heap as the first did.
func repeatSetup(dir string, cubes int, first time.Duration) ([]int64, error) {
	runtime.GC()
	times := []int64{int64(first)}
	for spent := first; len(times) < minSetups || spent < setupBudget; {
		e, d, err := setup(filepath.Join(dir, strconv.Itoa(len(times))), cubes)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(times)+1, err)
		}
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("set-up %d: close: %w", len(times)+1, err)
		}
		times = append(times, int64(d))
		spent += d
	}
	return times, nil
}

// verifyAfterRestart checkpoints, measures the stored bytes, then closes the
// database, opens it again and checks through a fresh client that every cube
// shows its last acknowledged revision and that the five atom types keep
// their cardinality restrictions. It returns the space amplification
// (stored bytes per encoded byte of live atoms) and the encoded size of
// one face atom.
func (s *session) verifyAfterRestart(rep *report) (space, faceBytes float64, err error) {
	if err := s.env.db.Checkpoint(); err != nil {
		return 0, 0, fmt.Errorf("final checkpoint: %w", err)
	}
	onDisk, err := storedBytes(s.env.dir)
	if err != nil {
		return 0, 0, err
	}
	if err := s.env.reopen(); err != nil {
		return 0, 0, err
	}
	wc, err := wire.Dial(s.env.srv.Addr())
	if err != nil {
		return 0, 0, fmt.Errorf("dial after restart: %w", err)
	}
	defer wc.Close()
	mols, err := wc.Checkout(bulkQuery)
	if err != nil {
		return 0, 0, fmt.Errorf("checkout after restart: %w", err)
	}
	bad, first := s.oracle.verifyAll(mols)
	rep.attempted += int64(s.w.cubes)
	rep.failed += int64(bad)
	if bad > 0 {
		rep.problem("after restart: %d of %d cubes wrong, first: %v", bad, s.w.cubes, first)
	}

	sys := s.env.db.System()
	var live, faces, faceTotal int64
	for _, t := range atomTypes {
		rep.attempted++
		if err := sys.CheckIntegrity(t); err != nil {
			rep.failed++
			rep.problem("after restart: integrity of %s: %v", t, err)
		}
		err := sys.AtomTypeScan(t, nil, nil, func(at *access.Atom) bool {
			n := int64(len(atom.EncodeAtom(at.Values)))
			live += n
			if t == "face" {
				faces++
				faceTotal += n
			}
			return true
		})
		if err != nil {
			return 0, 0, fmt.Errorf("scan %s: %w", t, err)
		}
	}
	rep.note("after restart: %d cubes and %d atom types verified; %d bytes stored, log apart, for %d encoded bytes of live atoms",
		s.w.cubes, len(atomTypes), onDisk, live)
	return float64(onDisk) / float64(live), float64(faceTotal) / float64(faces), nil
}
