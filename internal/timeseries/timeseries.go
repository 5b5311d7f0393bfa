// Package timeseries implements the time-series reductions WhoWas uses
// to characterize cluster-size evolution (§8.1) and to summarize
// measurement campaigns:
//
//   - piecewise aggregate approximation (PAA) over irregular sampling,
//     with the paper's 7-day median windows,
//   - tendency vectors (Algorithm 1) and their run-length merge, whose
//     output is the "size-change pattern" of Table 11,
//   - empirical CDFs (Figures 12, 16, 19),
//   - summary statistics (min/max/mean/std) used by Table 7.
package timeseries

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one observation of a series at a given day offset. Days
// need not be evenly spaced: the paper probed every 3 days in
// October–November 2013 and daily in December.
type Sample struct {
	Day   int     // day offset from campaign start, >= 0
	Value float64 // observed value (e.g. number of IPs in a cluster)
}

// PAA reduces irregular samples to fixed windows of windowDays,
// representing each window by the median of the samples that fall in
// it (the paper uses the median "so as to be robust in the face of
// outliers"). The frame count is round(totalDays/windowDays) — the
// paper derives dimension 13 for its 93-day EC2 campaign and 9 for the
// 62-day Azure campaign — with a trailing partial window folded into
// the last frame. Callers must supply a sample for every measured
// round, using value 0 for rounds where the subject was absent (the
// paper's vector D does the same); windows with no samples at all take
// value 0.
func PAA(samples []Sample, totalDays, windowDays int) []float64 {
	if windowDays <= 0 || totalDays <= 0 {
		return nil
	}
	frames := (totalDays + windowDays/2) / windowDays
	if frames < 1 {
		frames = 1
	}
	frame := func(day int) int { return min(day/windowDays, frames-1) }
	// The values in range are laid out frame by frame in one slice:
	// end[f] first counts frame f's samples, then marks where its next
	// value goes, so that once all are placed it is where frame f ends.
	end := make([]int, frames)
	for _, s := range samples {
		if s.Day >= 0 && s.Day < totalDays {
			end[frame(s.Day)]++
		}
	}
	at := 0
	for f, n := range end {
		end[f] = at
		at += n
	}
	vals := make([]float64, at)
	for _, s := range samples {
		if s.Day >= 0 && s.Day < totalDays {
			f := frame(s.Day)
			vals[end[f]] = s.Value
			end[f]++
		}
	}
	out := make([]float64, frames)
	start := 0
	for f := range out {
		out[f] = median(vals[start:end[f]])
		start = end[f]
	}
	return out
}

// median returns the median of vs, or 0 for an empty slice. It sorts
// vs in place.
func median(vs []float64) float64 {
	switch len(vs) {
	case 0:
		return 0
	case 1:
		return vs[0]
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// Tendency computes D” from D' per Algorithm 1 of the paper: element
// i is +1 if D'[i+1] > D'[i], 0 if equal, -1 otherwise. The result has
// len(d)-1 elements (nil for len(d) < 2).
func Tendency(d []float64) []int {
	if len(d) < 2 {
		return nil
	}
	out := make([]int, len(d)-1)
	for i := 0; i+1 < len(d); i++ {
		switch {
		case d[i+1] > d[i]:
			out[i] = 1
		case d[i+1] == d[i]:
			out[i] = 0
		default:
			out[i] = -1
		}
	}
	return out
}

// MergeRuns collapses consecutive repeats: (0,1,1,0,-1,-1) -> (0,1,0,-1).
// The merged tendency vector is the paper's size-change pattern.
func MergeRuns(t []int) []int {
	var out []int
	for i, v := range t {
		if i == 0 || v != t[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Pattern computes the size-change pattern of a cluster's size series:
// PAA with 7-day median windows, tendency vector, run-length merge.
// An empty or single-frame series yields the stable pattern "0".
func Pattern(samples []Sample, totalDays int) string {
	const windowDays = 7
	d := PAA(samples, totalDays, windowDays)
	merged := MergeRuns(Tendency(d))
	if len(merged) == 0 {
		return "0"
	}
	return PatternString(merged)
}

// PatternString renders a merged tendency vector as the paper writes
// patterns: comma-separated {-1, 0, 1} values ("0,1,0,-1,0").
func PatternString(t []int) string {
	if len(t) == 0 {
		return "0"
	}
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// CDF is an empirical cumulative distribution over float64 values.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from values (copied and sorted).
func NewCDF(values []float64) *CDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), or 0 for an empty CDF.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile for q in [0,1] (nearest-rank).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Points returns (x, P(X<=x)) pairs at each distinct value, suitable
// for printing the paper's CDF figures.
func (c *CDF) Points() []Point {
	var pts []Point
	n := float64(len(c.sorted))
	for i := 0; i < len(c.sorted); i++ {
		// Emit at the last occurrence of each distinct value.
		if i+1 < len(c.sorted) && c.sorted[i+1] == c.sorted[i] {
			continue
		}
		pts = append(pts, Point{X: c.sorted[i], Y: float64(i+1) / n})
	}
	return pts
}

// Point is one (x, y) pair of a rendered CDF or time-series figure.
type Point struct {
	X, Y float64
}

// Stats holds the summary block used by Table 7.
type Stats struct {
	Min, Max, Mean, Std float64
	N                   int
}

// Summarize computes min/max/mean/population-std over values.
func Summarize(values []float64) Stats {
	var s Stats
	s.N = len(values)
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum float64
	for _, v := range values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

// Growth returns (last-first, (last-first)/first) for a series; the
// fraction is 0 when the series is empty or starts at 0. Table 7's
// "overall growth" row uses this.
func Growth(values []float64) (abs, frac float64) {
	if len(values) == 0 {
		return 0, 0
	}
	first, last := values[0], values[len(values)-1]
	abs = last - first
	if first != 0 {
		frac = abs / first
	}
	return abs, frac
}
