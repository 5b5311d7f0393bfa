package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile (the choosing-metrics rule): p95 of 300 samples has 15
// beyond it and stands; p95 of 199 has 9 and is refused.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. A tail percentile is refused unless at least minBeyond samples
// lie beyond its rank; the median is exempt (it is what a small sample
// reports instead).
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile: p=%v outside (0,100)", p)
	}
	if p == 50 {
		return median(xs), nil
	}
	rank := int(math.Ceil(p * float64(n) / 100)) // multiply first: exact for whole p
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%v of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// highestPercentile names the highest whole percentile of n samples
// that still has minBeyond samples beyond it, or 0 when even p51 does
// not (only the median is reportable).
func highestPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-(p*n+99)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// spread is (max-min)/median: the run-to-run disagreement printed next
// to every median. 0 for fewer than two samples or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// worsening is how much worse cur is than base, as a share of base, in
// the metric's own direction; negative means better.
func worsening(base, cur float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}
