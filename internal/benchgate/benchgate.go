// Package benchgate is the shared CI bench-gate runner: a package registers
// the benchmarks it gates, and Run re-executes them against the committed
// baseline (BENCH_baseline.json at the repository root), failing on
// allocs/op or ns/op regressions beyond the baseline's headroom factors.
//
// One baseline file serves every gating package; Run only enforces the keys
// the calling package registered, so each package's gate skips entries that
// belong to another package's benchmarks.
//
// When the BENCH_RESULTS environment variable names a file, Run also writes
// the measured profile of every gated benchmark there, in the baseline's own
// JSON format (measured allocs/ns with the baseline's headroom factors
// carried over). Gates in different packages run as separate `go test`
// invocations, so Run merges into an existing file rather than overwriting —
// CI uploads the merged file as an artifact, and a PR that legitimately
// shifts a profile can promote it to the new BENCH_baseline.json.
package benchgate

import (
	"encoding/json"
	"os"
	"testing"
)

// Baseline is one committed benchmark profile. Allocation counts are
// deterministic across machines — unlike wall clock — so allocs gates
// typically carry a tight headroom (1.25x), while ns/op gates exist to
// catch order-of-magnitude cliffs and carry a wide CI-stability headroom
// (3x). An entry with a headroom gates allocs/op, one with an ns_headroom
// ns/op; a gated allocs_per_op of 0 (the buffer's fix) admits none.
type Baseline struct {
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Headroom    float64 `json:"headroom,omitempty"` // allocs/op headroom factor
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	NsHeadroom  float64 `json:"ns_headroom,omitempty"`
}

// Load reads and parses a baseline file.
func Load(path string) (map[string]Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var baselines map[string]Baseline
	if err := json.Unmarshal(data, &baselines); err != nil {
		return nil, err
	}
	return baselines, nil
}

// Run gates every registered benchmark against its baseline entry. A
// registered benchmark without a baseline entry is a test failure (the gate
// would silently not gate); a baseline entry without a registered benchmark
// is skipped (it belongs to another package's gate).
func Run(t *testing.T, baselinePath string, benches map[string]func(b *testing.B)) {
	baselines, err := Load(baselinePath)
	if err != nil {
		t.Fatalf("load baseline: %v", err)
	}
	results := make(map[string]Baseline, len(benches))
	for name, fn := range benches {
		base, ok := baselines[name]
		if !ok {
			t.Errorf("registered benchmark %q has no baseline entry in %s", name, baselinePath)
			continue
		}
		if base.Headroom == 0 && base.NsPerOp <= 0 {
			t.Errorf("baseline %q is empty: %+v", name, base)
			continue
		}
		res := testing.Benchmark(fn)
		results[name] = Baseline{
			AllocsPerOp: float64(res.AllocsPerOp()),
			Headroom:    base.Headroom,
			NsPerOp:     float64(res.NsPerOp()),
			NsHeadroom:  base.NsHeadroom,
		}
		if base.Headroom != 0 {
			if base.Headroom < 1 {
				t.Fatalf("baseline %q: allocs headroom %v < 1", name, base.Headroom)
			}
			got, limit := float64(res.AllocsPerOp()), base.AllocsPerOp*base.Headroom
			t.Logf("%s: %.0f allocs/op (baseline %.0f, limit %.0f)", name, got, base.AllocsPerOp, limit)
			if got > limit {
				t.Errorf("%s: allocs/op regression: %.0f > limit %.0f (baseline %.0f x headroom %.2f) — "+
					"fix the regression or re-measure and update %s",
					name, got, limit, base.AllocsPerOp, base.Headroom, baselinePath)
			}
		}
		if base.NsPerOp > 0 {
			if base.NsHeadroom < 1 {
				t.Fatalf("baseline %q: ns headroom %v < 1", name, base.NsHeadroom)
			}
			got, limit := float64(res.NsPerOp()), base.NsPerOp*base.NsHeadroom
			t.Logf("%s: %.0f ns/op (baseline %.0f, limit %.0f)", name, got, base.NsPerOp, limit)
			if got > limit {
				t.Errorf("%s: ns/op regression: %.0f > limit %.0f (baseline %.0f x headroom %.2f) — "+
					"fix the regression or re-measure and update %s",
					name, got, limit, base.NsPerOp, base.NsHeadroom, baselinePath)
			}
		}
	}
	if path := os.Getenv("BENCH_RESULTS"); path != "" {
		if err := writeResults(path, results); err != nil {
			t.Errorf("write BENCH_RESULTS artifact %s: %v", path, err)
		}
	}
}

// writeResults merges the measured profiles into the artifact file named by
// BENCH_RESULTS. Merging (rather than overwriting) lets the separate root and
// wire gate invocations accumulate into one artifact.
func writeResults(path string, results map[string]Baseline) error {
	merged := map[string]Baseline{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for name, r := range results {
		merged[name] = r
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
