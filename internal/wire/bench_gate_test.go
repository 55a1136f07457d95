//go:build benchgate

package wire

// The wire-layer CI bench gate: run with
//
//	go test -tags benchgate -run TestBenchGate ./internal/wire/
//
// Shares BENCH_baseline.json at the repository root with the root package's
// gate; only the keys registered here are enforced by this gate. When a PR
// legitimately changes the wire profile, re-measure with
//
//	go test -run=NONE -bench=BenchmarkWireRoundTrip -benchmem ./internal/wire/
//
// and update the baseline in the same commit.

import (
	"testing"

	"prima/internal/benchgate"
)

var gatedBenchmarks = map[string]func(b *testing.B){
	"BenchmarkWireRoundTrip/ping": benchWirePing,
	// Wall-clock only: the insert path's allocation count varies with
	// B-tree splits and map growth as the table accretes across runs.
	"BenchmarkWireRoundTrip/exec_insert_wal": benchWireExecInsert,
	// The tracing-overhead gate: a SELECT round trip walks every
	// trace-instrumented path with tracing disabled.
	"BenchmarkWireRoundTrip/exec_select": benchWireExecSelect,
	// The per-atom gate: one 27-atom cube per round trip.
	"BenchmarkWireRoundTrip/checkout_cube": benchWireCheckoutCube,
}

func TestBenchGate(t *testing.T) {
	benchgate.Run(t, "../../BENCH_baseline.json", gatedBenchmarks)
}
