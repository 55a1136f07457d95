package wire

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"prima"
	"prima/internal/workload/brepgen"
)

// TestChaosMixedTrafficUnderFaults is the wire layer's crash-recovery
// property test: N concurrent clients run mixed checkout/checkin/query
// traffic against a fault-injected server (random latency, mid-stream
// resets, partial writes) with admission control tight enough to shed.
// Invariants checked at the end:
//
//   - zero acknowledged-write loss: every INSERT/checkin the server
//     acknowledged is present in the database afterwards;
//   - idempotent operations never fail — retry + reconnect absorb every
//     injected fault;
//   - graceful drain: Shutdown completes within its deadline;
//   - zero leaks: no open snapshots, no buffer-pool pins, no handler
//     panics, and the goroutine count returns to its baseline.
//
// The FaultPlan seed is fixed, so a failure reproduces.
func TestChaosMixedTrafficUnderFaults(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	const scene = 8
	if _, err := brepgen.BuildScene(db.Engine(), scene); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE ATOM_TYPE chaos (id: IDENTIFIER, n: INTEGER)`); err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan(42)
	plan.SetLatency(0.2, 500*time.Microsecond)
	plan.SetPartialWrite(0.02)
	plan.SetReset(0.02)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeListener(db, plan.Listen(ln), ServerConfig{
		IdleTimeout:  5 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		MaxConns:     64,
		MaxInFlight:  4,
		QueueWait:    100 * time.Millisecond,
	})
	defer srv.Close()

	const (
		clients = 6
		ops     = 30
	)
	ccfg := ClientConfig{
		MaxRetries:  12,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		OpTimeout:   3 * time.Second,
	}
	type outcome struct {
		acked       []int // acknowledged chaos-insert values
		maxAckedRev int   // highest acknowledged checkin revision (-1: none)
		execFails   int   // unacknowledged writes (tolerated, counted)
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	for id := 1; id <= clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res := outcome{maxAckedRev: -1}
			defer func() { results[id-1] = res }()
			c, err := DialConfig(srv.Addr(), ccfg)
			if err != nil {
				t.Errorf("client %d: dial: %v", id, err)
				return
			}
			defer c.Close()
			// Each client owns solid <id> for its checkins.
			own, err := c.Checkout(fmt.Sprintf(`SELECT ALL FROM solid WHERE solid_no = %d`, id))
			if err != nil || len(own) != 1 {
				t.Errorf("client %d: own-solid checkout: %d molecules, %v", id, len(own), err)
				return
			}
			solidAddr := own[0].Root
			for i := 0; i < ops; i++ {
				switch i % 5 {
				case 0:
					if err := c.Ping(); err != nil {
						t.Errorf("client %d op %d: ping: %v", id, i, err)
						return
					}
				case 1:
					if _, err := c.Metrics(); err != nil {
						t.Errorf("client %d op %d: stats: %v", id, i, err)
						return
					}
				case 2:
					q := fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, 1+i%scene)
					mols, err := c.Checkout(q)
					if err != nil {
						t.Errorf("client %d op %d: checkout: %v", id, i, err)
						return
					}
					if len(mols) != 1 || len(mols[0].Atoms) != brepgen.CubeAtoms {
						t.Errorf("client %d op %d: checkout = %d molecules", id, i, len(mols))
						return
					}
				case 3:
					n := id*1000 + i
					resp, err := c.Exec(fmt.Sprintf(`INSERT INTO chaos (n) VALUES (%d)`, n))
					if err == nil && resp.OK {
						res.acked = append(res.acked, n)
					} else {
						res.execFails++
					}
				case 4:
					lit := fmt.Sprintf("'c%dr%d'", id, i)
					if err := c.StageModify("solid", solidAddr, "description", lit); err != nil {
						t.Errorf("client %d op %d: stage: %v", id, i, err)
						return
					}
					resp, err := c.Checkin()
					if err == nil && resp.OK {
						res.maxAckedRev = i
					} else {
						res.execFails++
					}
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce the faults and pull the server's health counters.
	plan.SetLatency(0, 0)
	plan.SetPartialWrite(0)
	plan.SetReset(0)
	obs, err := DialConfig(srv.Addr(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := obs.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	obs.Close()
	if n := st.Counter("wire_panics"); n != 0 {
		t.Fatalf("%d handler panics under chaos", n)
	}
	// Shedding is allowed but bounded: a shed op is retried at most
	// MaxRetries times, so sheds can never exceed the total attempt budget.
	if limit, shed := uint64(clients*ops)*uint64(ccfg.MaxRetries+1), st.Counter("wire_shed"); shed > limit {
		t.Fatalf("shed %d requests > attempt budget %d — shed/retry loop", shed, limit)
	}
	t.Logf("chaos: conns=%.0f/%d rejected=%d requests=%d shed=%d aborts=%d resets=%d partials=%d latencies=%d",
		st.Gauge("wire_conns_active"), st.Counter("wire_conns_total"), st.Counter("wire_conns_rejected"), st.Counter("wire_requests"),
		st.Counter("wire_shed"), st.Counter("wire_stream_aborts"), plan.Resets.Load(), plan.Partials.Load(), plan.Latencies.Load())

	// Graceful drain within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Zero acknowledged-write loss: every acked insert is durable…
	for _, res := range results {
		for _, n := range res.acked {
			r, err := db.ExecOne(fmt.Sprintf(`SELECT ALL FROM chaos WHERE n = %d`, n))
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Molecules) != 1 {
				t.Fatalf("acknowledged insert n=%d lost (found %d)", n, len(r.Molecules))
			}
		}
	}
	// …and every acked checkin revision is reflected or superseded by a
	// later revision of the same client (checkins are sequential per
	// client, so the final description is its highest applied revision).
	for id := 1; id <= clients; id++ {
		res := results[id-1]
		if res.maxAckedRev < 0 {
			continue
		}
		r, err := db.ExecOne(fmt.Sprintf(`SELECT ALL FROM solid WHERE solid_no = %d`, id))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Molecules) != 1 {
			t.Fatalf("client %d solid missing", id)
		}
		desc := ""
		for _, ma := range r.Molecules[0].AtomsOf("solid") {
			desc = ma.Values()[2].S // description is attr index 2
		}
		var gotID, gotRev int
		if _, err := fmt.Sscanf(desc, "c%dr%d", &gotID, &gotRev); err != nil {
			t.Fatalf("client %d: final description %q is not a chaos revision", id, desc)
		}
		if gotID != id || gotRev < res.maxAckedRev {
			t.Fatalf("client %d: final revision %q older than acknowledged r%d", id, desc, res.maxAckedRev)
		}
	}

	// Zero leaks after drain.
	if n := db.OpenSnapshots(); n != 0 {
		t.Fatalf("%d snapshots leaked", n)
	}
	if n := db.System().Pool().Pinned(); n != 0 {
		t.Fatalf("%d buffer pins leaked", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC() // collect dropped cursors' finalizers, if any are pending
		if runtime.NumGoroutine() <= baseGoroutines+2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines %d > baseline %d after drain\n%s",
			n, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}

	execFails := 0
	for _, r := range results {
		execFails += r.execFails
	}
	t.Logf("chaos: %d clients x %d ops, %d unacknowledged writes (tolerated)", clients, ops, execFails)
}
