package main

import (
	"path/filepath"
	"testing"
	"time"
)

// windowOver runs a short window of w over a scene of the given size and
// returns what the sizing guards say about it.
func windowOver(t *testing.T, w workload, cubes int) []string {
	t.Helper()
	w.cubes = cubes
	e, _, err := setup(filepath.Join(t.TempDir(), "db"), cubes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	s, err := openSession(w, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.closeClients()
	p, d := s.measure(s.windowClients(), 500*time.Millisecond, 0)
	if p.err != nil {
		t.Fatalf("window over %d cubes: %v", cubes, p.err)
	}
	return sizingProblems(w, d)
}

func TestSizingGuards(t *testing.T) {
	hot, _ := workloadByName("checkout_hot")
	cold, _ := workloadByName("checkout_cold")
	if got := windowOver(t, hot, hot.cubes); len(got) != 0 {
		t.Errorf("hot workload at its own size: %v", got)
	}
	// 2,000 cubes are about 7 MB of pages for a 4 MiB buffer.
	if got := windowOver(t, hot, 2000); len(got) != 1 {
		t.Errorf("hot workload over 2,000 cubes: guards said %v, want one problem", got)
	}
	// 100 cubes fit both caches: no eviction, and the atom cache hits.
	if got := windowOver(t, cold, 100); len(got) == 0 {
		t.Errorf("cold workload over 100 cubes: guards said nothing")
	}
}
