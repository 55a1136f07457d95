package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// workload is one traffic mix over one scene size. The names are stable:
// later issues cite them.
type workload struct {
	name string
	why  string
	// cubes is the scene size; every cube is one 27-atom molecule.
	cubes int
	// overflows says the scene is meant to be larger than the buffer and
	// the atom cache; every other scene is meant to fit both.
	overflows bool
	// clients is the closed-loop client count of the measured window
	// (capped at nproc). The checkin tail always runs two.
	clients int
	// bulk replaces the point checkout by the full-design checkout.
	bulk bool
	// checkinShare is the share of window ops that are checkins. Workloads
	// whose window is read-only get their checkin_* metrics from the tail.
	checkinShare float64
	// ladder is how many generated requests the traced run replays.
	ladder int
}

var workloads = []workload{
	{
		name: "checkout_hot", cubes: 200, clients: 2, ladder: 2000,
		why: "point checkouts over 200 cubes that fit both caches: wire, plan cache and assembly do the work, storage none",
	},
	{
		name: "checkout_cold", cubes: 4000, overflows: true, clients: 2, ladder: 2000,
		why: "same requests over 4,000 cubes, 13x the atom cache: adds decode, buffer evictions and device reads",
	},
	{
		name: "checkout_bulk", cubes: 200, clients: 1, bulk: true, ladder: 200,
		why: "one client streams the whole 200-molecule design per request: per-atom costs dominate, per-request costs vanish",
	},
	{
		name: "checkin_mix", cubes: 200, clients: 2, checkinShare: 0.3, ladder: 2000,
		why: "70% point checkouts, 30% checkins on owned cubes: WAL append, MVCC pre-images and cache invalidation beside reads",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric names one reported number. BENCHMARK.json carries the same names
// and units plus direction and bound; spec_test.go keeps the two in step.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"checkout_p50_ms", "ms"},
	{"checkout_p99_ms", "ms"},
	{"checkout_per_s", "1/s"},
	{"atoms_per_s", "1/s"},
	{"checkin_p50_ms", "ms"},
	{"checkin_p95_ms", "ms"},
	{"checkin_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"space_amp", "ratio"},
	{"write_amp", "ratio"},
}

var perLayer = []metric{
	{"wire.ping_us", "us"},
	{"wire.self_us_per_checkout", "us"},
	{"wire.bytes_per_atom", "B"},
	{"wire.shed_ratio", "ratio"},
	{"mql.parse_us", "us"},
	{"core.plan_us", "us"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"core.assemble_us_per_molecule", "us"},
	{"core.allocs_per_molecule", "count"},
	{"core.self_us_per_checkout", "us"},
	{"access.getbatch_us_per_atom", "us"},
	{"access.atom_cache_hit_ratio", "ratio"},
	{"access.decode_us_per_atom", "us"},
	{"access.encode_us_per_atom", "us"},
	{"access.self_us_per_checkout", "us"},
	{"access.update_us", "us"},
	{"access.invalidations_per_checkin", "count"},
	{"access.open_snapshots_end", "count"},
	{"access.stale_reads", "count"},
	{"txn.commit_us", "us"},
	{"storage.self_us_per_checkout", "us"},
	{"storage.buffer_hit_ratio", "ratio"},
	{"storage.buffer_evictions_per_op", "count"},
	{"storage.fix_hit_ns", "ns"},
	{"storage.fix_miss_us", "us"},
	{"storage.device_reads_per_op", "count"},
	{"storage.device_writes_per_op", "count"},
	{"storage.wal_append_us", "us"},
	{"storage.wal_fsync_us", "us"},
	{"storage.wal_bytes_per_checkin", "B"},
	{"storage.wal_fsyncs_per_checkin", "count"},
	{"storage.checkpoints", "count"},
	{"runtime.gc_pause_ms", "ms/s"},
	{"runtime.heap_mb", "MB"},
	{"run.drift_ratio", "ratio"},
	{"run.failed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// request is one generated operation. cube is 1-based; 0 is the
// full-design checkout of the bulk workload.
type request struct {
	cube    int
	checkin bool
}

const bulkQuery = "SELECT ALL FROM brep-face-edge-point"

func pointQuery(cube int) string {
	return fmt.Sprintf("SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d", cube)
}

// mql is the statement the server sees for r's checkout. A checkin op
// starts with the same checkout.
func (r request) mql() string {
	if r.cube == 0 {
		return bulkQuery
	}
	return pointQuery(r.cube)
}

// generate produces client's request sequence for w from the seed alone.
// On a workload with checkins each client draws only from the cubes it owns
// (cube k belongs to client (k-1) mod clients), so that every read can be
// checked against the revision that client last had acknowledged; on a
// read-only workload clients draw from the whole scene.
func generate(w workload, seed int64, client, clients, n int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	owned := w.checkinShare > 0
	reqs := make([]request, n)
	for i := range reqs {
		switch {
		case w.bulk:
			// One statement: the sequence is the same for every seed.
		case owned:
			reqs[i].cube = ownedCube(rng, w.cubes, client, clients)
			reqs[i].checkin = rng.Float64() < w.checkinShare
		default:
			reqs[i].cube = 1 + rng.Intn(w.cubes)
		}
	}
	return reqs
}

// checkinTail is the traffic that follows a read-only window of w: the same
// scene, every op a checkin of a cube the client owns.
func checkinTail(w workload) workload {
	w.bulk, w.checkinShare = false, 1
	return w
}

func ownedCube(rng *rand.Rand, cubes, client, clients int) int {
	mine := (cubes - client + clients - 1) / clients
	return 1 + client + clients*rng.Intn(mine)
}

// render is the byte form of a sequence: what the determinism test compares.
func render(reqs []request) string {
	var sb strings.Builder
	for _, r := range reqs {
		if r.checkin {
			sb.WriteString("CHECKIN ")
		}
		sb.WriteString(r.mql())
		sb.WriteByte('\n')
	}
	return sb.String()
}
