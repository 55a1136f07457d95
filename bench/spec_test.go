package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		for client := 0; client < w.clients; client++ {
			a := render(generate(w, 1, client, w.clients, 5000))
			b := render(generate(w, 1, client, w.clients, 5000))
			if a != b {
				t.Errorf("%s client %d: seed 1 gave two different sequences", w.name, client)
			}
			other := render(generate(w, 2, client, w.clients, 5000))
			// The bulk workload has one statement, whatever the seed.
			if (a == other) != w.bulk {
				t.Errorf("%s client %d: seeds 1 and 2 equal = %v, want %v", w.name, client, a == other, w.bulk)
			}
		}
	}
}

// On checkin_mix and in the checkin tail of a read-only workload every
// client draws only from its own cubes, with the workload's checkin share.
func TestClientsOwnDisjointCubes(t *testing.T) {
	mix, _ := workloadByName("checkin_mix")
	hot, _ := workloadByName("checkout_hot")
	for _, w := range []workload{mix, checkinTail(hot)} {
		const clients, n = 2, 20000
		owner := map[int]int{}
		checkins := 0
		for client := 0; client < clients; client++ {
			for _, r := range generate(w, 3, client, clients, n) {
				if r.cube < 1 || r.cube > w.cubes {
					t.Fatalf("cube %d outside the scene", r.cube)
				}
				if prev, seen := owner[r.cube]; seen && prev != client {
					t.Fatalf("cube %d requested by clients %d and %d", r.cube, prev, client)
				}
				owner[r.cube] = client
				if r.checkin {
					checkins++
				}
			}
		}
		if len(owner) != w.cubes {
			t.Errorf("%d of %d cubes requested", len(owner), w.cubes)
		}
		if share := float64(checkins) / (n * clients); math.Abs(share-w.checkinShare) > 0.02 {
			t.Errorf("checkin share %.3f, want about %.2f", share, w.checkinShare)
		}
	}
}

// BENCHMARK.json declares what this package reports: same workloads, same
// metric names and units, in both lists.
func TestDeclarationMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var decl struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []declared                   `json:"end_to_end"`
		PerLayer  []declared                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, code has %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
	}
	for _, list := range []struct {
		what     string
		declared []declared
		code     []metric
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(list.declared) != len(list.code) {
			t.Fatalf("%s: %d metrics declared, %d in code", list.what, len(list.declared), len(list.code))
		}
		for i, m := range list.code {
			if d := list.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s %d: declared %s [%s], code has %s [%s]", list.what, i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
