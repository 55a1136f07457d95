// Command bench is PRIMA's checkout/checkin benchmark: the yardstick every
// later performance claim is measured with. One process opens a database,
// builds a BREP scene, serves it over the wire and drives it with
// closed-loop workstation clients; README.md describes the workloads, the
// metrics and how to read them. BENCHMARK.json at the root of the repository
// declares it.
//
//	go run ./bench -workload checkout_hot            one workload, end-to-end metrics
//	go run ./bench -workload checkout_hot -trace 1   its per-layer metrics and trace
//	go run ./bench -workload all -repeat 3           three sets, spread against the bounds
//
// Run it from the root of the repository. bench/run.sh, which BENCHMARK.json
// names, builds and runs the same program with Go's caches inside the
// checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated request sequences")
	seconds := flag.Int("seconds", 0, "the measured window; BENCHMARK.json fixes it (run_seconds), so any other value is refused")
	trace := flag.Int("trace", 0, "1 runs the traced ladder and prints the per-layer metrics instead of the end-to-end ones")
	repeat := flag.Int("repeat", 1, "with -workload all: how many full sets to run and compare")
	out := flag.String("out", "", "also write the results as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	decl, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the root of the repository:", err)
		os.Exit(1)
	}
	if *seconds != 0 && *seconds != decl.RunSeconds {
		fmt.Fprintf(os.Stderr, "bench: -seconds %d, but BENCHMARK.json fixes the window at %d\n", *seconds, decl.RunSeconds)
		os.Exit(2)
	}
	opt := options{seed: *seed, window: time.Duration(decl.RunSeconds) * time.Second, trace: *trace == 1}

	ok := false
	if *name == "all" {
		ok, err = runSets(opt, decl, *repeat, *out)
	} else if w, found := workloadByName(*name); found {
		ok, err = runOne(w, opt, *out)
	} else {
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// value and result are the benchmark's output contract: the last line of
// standard output is one result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// declaredMetrics is what a run prints: the per-layer metrics when traced,
// the end-to-end ones otherwise.
func declaredMetrics(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in this process and prints its report; the
// result is the last line.
func runOne(w workload, opt options, out string) (bool, error) {
	rep, err := run(w, opt)
	if err != nil {
		return false, err
	}
	declared := declaredMetrics(opt.trace)
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	fmt.Printf("# %s: %s\n", w.name, w.why)
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	for _, m := range declared {
		v, have := rep.metrics[m.name]
		if !have || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s has no finite value", m.name)
			v = 0
		}
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Printf("%-34s %14.4f %s\n", m.name, v, m.unit)
	}
	for _, p := range rep.problems {
		fmt.Println("PROBLEM:", p)
	}
	res.Correct = len(rep.problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	if out != "" {
		if err := os.WriteFile(out, append(line, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// runSets runs every workload sets times, each run in a process of its own
// so that peak memory and heap state start fresh, and prints per workload
// and metric the median, the quartiles and the largest relative difference
// between two sets beside the bound BENCHMARK.json gives the metric.
func runSets(opt options, decl *declaration, sets int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	declared := declaredMetrics(opt.trace)
	allOK := true
	all := map[string][]result{}
	for set := 1; set <= sets; set++ {
		for _, w := range workloads {
			fmt.Printf("# set %d/%d: %s\n", set, sets, w.name)
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
				"-trace", strconv.Itoa(btoi(opt.trace)))
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return false, fmt.Errorf("%s: no result (%v): %s", w.name, runErr, stdout)
			}
			if runErr != nil || !res.Correct {
				allOK = false
				os.Stdout.Write(stdout)
			}
			all[w.name] = append(all[w.name], res)
		}
	}

	for _, w := range workloads {
		fmt.Printf("\n%s (%d sets, seed %d, %v window)\n", w.name, sets, opt.seed, opt.window)
		fmt.Printf("%-34s %-6s %12s %12s %12s %9s %6s\n", "metric", "unit", "median", "q1", "q3", "max diff", "bound")
		for _, m := range declared {
			vals := make([]float64, 0, sets)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, res := range all[w.name] {
				v := res.Metrics[m.name].Value
				vals = append(vals, v)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			q1, q2, q3 := quartiles(vals)
			diff, bound := "-", "-"
			if q2 != 0 {
				diff = fmt.Sprintf("%.3f", (hi-lo)/math.Abs(q2))
			}
			if b, ok := decl.bound(m.name); ok {
				bound = fmt.Sprintf("%.2f", b)
			}
			fmt.Printf("%-34s %-6s %12.4f %12.4f %12.4f %9s %6s\n", m.name, m.unit, q2, q1, q3, diff, bound)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// declaration is what this program takes from BENCHMARK.json: the length
// of the measured window and the regression bound of each end-to-end metric.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if decl.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds %d", path, decl.RunSeconds)
	}
	return &decl, nil
}

func (d *declaration) bound(metric string) (float64, bool) {
	for _, m := range d.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}
