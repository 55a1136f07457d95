package wire

import (
	"testing"
)

// TestStatsOp exercises the stats op end to end: the atom cache is
// visible over the wire, and a repeated checkout shows up as cache hits.
func TestStatsOp(t *testing.T) {
	_, srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if n := st.Gauge("atom_cache_budget"); n <= 0 {
		t.Fatalf("atom cache budget = %v, want enabled by default", n)
	}

	const q = `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`
	for i := 0; i < 2; i++ {
		if _, err := c.Checkout(q); err != nil {
			t.Fatalf("checkout %d: %v", i, err)
		}
	}
	st2, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if before, after := st.Counter("atom_cache_hits"), st2.Counter("atom_cache_hits"); after <= before {
		t.Fatalf("repeated checkout produced no atom cache hits (%d -> %d)", before, after)
	}
	if st2.Gauge("atom_cache_atoms") == 0 {
		t.Fatalf("no atoms cached after checkout: %+v", st2.Gauges)
	}

	// The buffer's frame counters and the runtime's gauges travel with the
	// rest: building the scene allocated frames, and a process that serves
	// this request has a heap and goroutines.
	if _, ok := st2.Counters["buffer_frames_recycled_total"]; !ok || st2.Counter("buffer_frame_allocs_total") == 0 {
		t.Errorf("buffer frame counters: %d allocated, recycled present %v", st2.Counter("buffer_frame_allocs_total"), ok)
	}
	for _, name := range []string{"runtime_heap_inuse_bytes", "runtime_goroutines"} {
		if st2.Gauge(name) <= 0 {
			t.Errorf("%s = %v, want it positive", name, st2.Gauge(name))
		}
	}
	for _, name := range []string{"runtime_gc_cpu_seconds", "runtime_gc_pause_seconds"} {
		if v, ok := st2.Gauges[name]; !ok || v < 0 {
			t.Errorf("%s = %v, registered %v", name, v, ok)
		}
	}
	// Transaction waiting and throughput travel too (they move in the txn
	// package's TestTxnMetrics).
	for _, name := range []string{"txn_lock_conflicts_total", "txn_commits_total", "txn_aborts_total"} {
		if _, ok := st2.Counters[name]; !ok {
			t.Errorf("counter %s not on the stats op", name)
		}
	}
	if _, ok := st2.Gauges["txn_active"]; !ok {
		t.Error("gauge txn_active not on the stats op")
	}
}
