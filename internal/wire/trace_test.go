package wire

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"prima"
	"prima/internal/workload/brepgen"
)

// startTracedServer is startServer with the slow-query threshold armed so
// every request is traced (IDs on every response) and every request at least
// slow is retained in the slow ring.
func startTracedServer(t testing.TB, slow time.Duration) (*prima.DB, *Server) {
	t.Helper()
	db, err := prima.Open(prima.Config{SlowQueryThreshold: slow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 5); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv
}

// TestWireTraceIDAndSlowRing is the end-to-end tracing path: a traced exec
// returns a trace ID, and the same request is retrievable from the slow ring
// (wire slow op) with its full span tree — parse, plan and assemble spans
// with the read-path counters.
func TestWireTraceIDAndSlowRing(t *testing.T) {
	_, srv := startTracedServer(t, time.Nanosecond)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Exec(`SELECT ALL FROM brep-face-edge WHERE brep_no = 2`)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if resp.TraceID == "" {
		t.Fatal("traced exec returned no trace ID")
	}

	traces, err := c.Slow(0)
	if err != nil {
		t.Fatalf("Slow: %v", err)
	}
	var found bool
	for _, tr := range traces {
		if tr.ID != resp.TraceID {
			continue
		}
		found = true
		if tr.Root.Name != "wire:exec" {
			t.Fatalf("slow trace root = %q, want wire:exec span", tr.Root.Name)
		}
		if got := tr.Root.Attrs["mql"]; !strings.Contains(got, "brep-face-edge") {
			t.Errorf("trace mql attr = %q", got)
		}
		for _, span := range []string{"parse", "plan", "assemble"} {
			if tr.Find(span) == nil {
				t.Errorf("slow trace missing %q span:\n%s", span, tr.String())
			}
		}
		asm := tr.Find("assemble")
		if asm.Counters["molecules"] != 1 {
			t.Errorf("assemble molecules = %d, want 1", asm.Counters["molecules"])
		}
		if asm.Counters["atoms_decoded"] == 0 {
			t.Errorf("assemble decoded no atoms:\n%s", tr.String())
		}
	}
	if !found {
		t.Fatalf("trace %s not in slow ring (%d retained)", resp.TraceID, len(traces))
	}

	// The slow ring is bounded to n on request.
	if _, err := c.Exec(`SELECT ALL FROM solid`); err != nil {
		t.Fatal(err)
	}
	limited, err := c.Slow(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Fatalf("Slow(1) returned %d traces", len(limited))
	}
}

// TestWireCheckoutStreamTraceID checks the stream path: the trace ID rides
// on the final frame and the client surfaces it.
func TestWireCheckoutStreamTraceID(t *testing.T) {
	_, srv := startTracedServer(t, time.Nanosecond)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mols, traceID, err := c.CheckoutTraced(`SELECT ALL FROM brep-face-edge-point`)
	if err != nil {
		t.Fatalf("CheckoutTraced: %v", err)
	}
	if len(mols) != 5 {
		t.Fatalf("checkout returned %d molecules, want 5", len(mols))
	}
	if traceID == "" {
		t.Fatal("traced checkout returned no trace ID")
	}
	traces, err := c.Slow(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if tr.ID == traceID {
			if tr.Find("assemble") == nil {
				t.Fatalf("checkout trace has no assemble span:\n%s", tr.String())
			}
			if got := tr.Find("assemble").Counters["molecules"]; got != 5 {
				t.Fatalf("checkout trace molecules = %d, want 5", got)
			}
			return
		}
	}
	t.Fatalf("checkout trace %s not retained", traceID)
}

// TestWireTracingDisabledNoTraceID: with every tracing knob off, responses
// carry no trace ID and the slow ring stays empty — the disabled cost is one
// nil check per instrumentation site.
func TestWireTracingDisabledNoTraceID(t *testing.T) {
	_, srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec(`SELECT ALL FROM solid`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "" {
		t.Fatalf("untraced exec returned trace ID %q", resp.TraceID)
	}
	traces, err := c.Slow(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Fatalf("slow ring has %d traces with tracing off", len(traces))
	}
}

var stagesRe = regexp.MustCompile(`\(stages: ([^)]+)\)`)

// TestExplainAnalyzeStageSumVsWireLatency is the acceptance check: EXPLAIN
// ANALYZE on a three-level molecule query reports per-stage timings whose
// sum lands within 20% of the wire-observed latency. The response carries no
// molecule payload (just the rendered text), so client-observed latency is
// essentially the server's parse+plan+assemble work plus loopback overhead;
// scheduling noise is absorbed by retrying a few times.
func TestExplainAnalyzeStageSumVsWireLatency(t *testing.T) {
	db, err := prima.Open(prima.Config{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	// A scene large enough that assembly dominates the round trip: with a
	// tiny result set, loopback and JSON overhead swamp the stage sum and
	// the 20% bound would measure the network, not the tracer.
	if _, err := brepgen.BuildScene(db.Engine(), 60); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := `EXPLAIN ANALYZE SELECT ALL FROM brep-face-edge WHERE brep_no >= 1`
	var lastRatio float64
	for attempt := 0; attempt < 8; attempt++ {
		t0 := time.Now()
		resp, err := c.Exec(q)
		wall := time.Since(t0)
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
		m := stagesRe.FindStringSubmatch(resp.Message)
		if m == nil {
			t.Fatalf("no stages sum in EXPLAIN ANALYZE output:\n%s", resp.Message)
		}
		stages, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatalf("unparseable stages duration %q: %v", m[1], err)
		}
		lastRatio = float64(stages) / float64(wall)
		if lastRatio >= 0.8 && lastRatio <= 1.2 {
			return
		}
	}
	t.Fatalf("stage sum never within 20%% of wire latency (last ratio %.2f)", lastRatio)
}

// TestWireSlowOpIsDiagnostic: the slow op must bypass admission control so
// an operator can pull traces from a saturated server.
func TestWireSlowOpIsDiagnostic(t *testing.T) {
	db, err := prima.Open(prima.Config{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeConfig(db, "", ServerConfig{MaxInFlight: 1, QueueWait: -1})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	// Fill the single in-flight slot.
	srv.inflight <- struct{}{}
	defer func() { <-srv.inflight }()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Slow(0); err != nil {
		t.Fatalf("Slow during saturation: %v", err)
	}
}

// TestWireEncodeIsAttributed: serialisation shows as its own stage, apart
// from assembly: an "encode" span per response frame under the request's
// wire:<op> root, and the wire_encode_ns and wire_request_decode_ns
// histograms in the registry.
func TestWireEncodeIsAttributed(t *testing.T) {
	db, srv := startTracedServer(t, time.Nanosecond)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := db.Metrics()

	_, traceID, err := c.CheckoutTraced(`SELECT ALL FROM brep-face-edge-point`)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Exec(`SELECT ALL FROM solid`)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := c.Slow(0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, tr := range traces {
		if tr.ID != traceID && tr.ID != resp.TraceID {
			continue
		}
		found++
		enc := tr.Find("encode")
		if enc == nil {
			t.Fatalf("trace %s has no encode span:\n%s", tr.Root.Name, tr.String())
		}
		if enc.DurationNs <= 0 || enc.DurationNs > tr.DurationNs {
			t.Fatalf("encode span of %dns in a trace of %dns", enc.DurationNs, tr.DurationNs)
		}
	}
	if found != 2 {
		t.Fatalf("%d of the 2 traced requests retained", found)
	}

	after := db.Metrics()
	// Three requests so far on this server, each decoded once and answered
	// in one frame.
	if got := after.Hist("wire_request_decode_ns").Count - before.Hist("wire_request_decode_ns").Count; got != 3 {
		t.Fatalf("wire_request_decode_ns took %d samples over 3 requests", got)
	}
	if got := after.Hist("wire_encode_ns").Count - before.Hist("wire_encode_ns").Count; got != 3 {
		t.Fatalf("wire_encode_ns took %d samples over 3 one-frame responses", got)
	}
}
