package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile read off fewer tail samples is one or two outliers, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs: the
// smallest sample with at least p·n samples at or below it. It refuses a
// sample too small to leave minBeyond samples above the rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", 100*p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the plain middle value (mean of the two middles for even n),
// for quantities that are not tail-sensitive: repeated set-up times and
// RSS samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
