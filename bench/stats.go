package main

import (
	"math"
	"sort"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. It returns 0 for an empty sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// medianInt64 sorts s in place and returns its nearest-rank median.
func medianInt64(s []int64) int64 {
	sortInt64(s)
	return percentile(s, 50)
}

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) computes them (the
// "exclusive" method), which is what the benchmark's acceptance rule uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
