//go:build benchgate

package prima

// The CI bench gate: run with
//
//	go test -tags benchgate -run TestBenchGate .
//
// It re-runs the warm repeated-checkout, parallel-materialization,
// group-commit, buffer-fix and cold-batch benchmarks and fails when allocs/op
// or ns/op regresses
// beyond the committed baseline (BENCH_baseline.json) times its headroom
// factor. The baseline file is shared with other packages' gates (e.g.
// internal/wire); this gate only enforces the keys registered below. When a
// PR legitimately changes a profile, re-measure with
//
//	go test -run=NONE -bench='BenchmarkRepeatedCheckout|BenchmarkParallelMaterialization|BenchmarkGroupCommit|BenchmarkBufferFix|BenchmarkGetBatchCold' -benchmem .
//
// and update the baseline in the same commit.

import (
	"testing"

	"prima/internal/benchgate"
)

// gatedBenchmarks maps baseline keys to the benchmark bodies they gate.
var gatedBenchmarks = map[string]func(b *testing.B){
	"BenchmarkRepeatedCheckout/cache_on":         func(b *testing.B) { benchRepeatedCheckout(b, 1<<16) },
	"BenchmarkParallelMaterialization/serial":    func(b *testing.B) { benchParallelMaterialization(b, 1) },
	"BenchmarkParallelMaterialization/parallel8": func(b *testing.B) { benchParallelMaterialization(b, 8) },
	// Wall-clock only: group-commit batching is timing-dependent, so
	// allocation counts are not stable enough to gate.
	"BenchmarkGroupCommit/committers16": func(b *testing.B) { benchGroupCommit(b, 16) },
	// The storage and access rungs of a cold checkout: a fix allocates
	// nothing, hit or miss, and a batched read nothing per page.
	"BenchmarkBufferFix/hit":  func(b *testing.B) { benchBufferFix(b, false) },
	"BenchmarkBufferFix/miss": func(b *testing.B) { benchBufferFix(b, true) },
	"BenchmarkGetBatchCold":   benchGetBatchCold,
}

func TestBenchGate(t *testing.T) {
	benchgate.Run(t, "BENCH_baseline.json", gatedBenchmarks)
}
