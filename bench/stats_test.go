package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referencePercentile is the definition, by counting: the smallest sample
// with at least p% of all samples at or below it.
func referencePercentile(samples []int64, p float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for _, v := range s {
		atOrBelow := 0
		for _, x := range s {
			if x <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p/100*float64(len(s)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		samples := make([]int64, n)
		for i := range samples {
			samples[i] = rng.Int63n(50) // duplicates on purpose
		}
		sorted := append([]int64(nil), samples...)
		sortInt64(sorted)
		for _, p := range []float64{0.1, 1, 25, 50, 90, 95, 99, 99.9, 100} {
			if got, want := percentile(sorted, p), referencePercentile(samples, p); got != want {
				t.Errorf("n=%d p=%v: got %d, want %d", n, p, got, want)
			}
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: got %d, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vals)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
				break
			}
		}
	}
}
