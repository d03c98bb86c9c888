package main

import (
	"math"
	"sort"
)

// mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentileRank is the 1-based nearest rank of quantile q among n sorted
// samples: the smallest rank with at least q·n samples at or below it.
func percentileRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank quantile q of sorted (ascending) and
// how many samples lie beyond it, the count that says whether the
// percentile is supported by the sample.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	r := percentileRank(len(sorted), q)
	return sorted[r-1], len(sorted) - r
}

// sortedCopy returns xs in ascending order without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
