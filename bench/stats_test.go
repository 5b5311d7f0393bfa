package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	// 300 samples: p95 is rank 285, 15 beyond it.
	got, err := percentile(seq(300), 95)
	if err != nil || got != 285 {
		t.Errorf("p95 of 1..300 = %v, %v; want 285", got, err)
	}
	// 200 samples: rank 190, exactly 10 beyond.
	if got, err := percentile(seq(200), 95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	// 199 samples: rank 190, 9 beyond: refused.
	if _, err := percentile(seq(199), 95); err == nil {
		t.Error("p95 of 199 samples was not refused")
	}
	// The median is what a small sample reports instead.
	if got, err := percentile(seq(5), 50); err != nil || got != 3 {
		t.Errorf("p50 of 1..5 = %v, %v; want 3", got, err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(300), p); err == nil {
			t.Errorf("percentile accepted p=%v", p)
		}
	}
	if _, err := percentile(nil, 95); err == nil {
		t.Error("percentile accepted an empty sample")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{300, 96}, // ceil(0.96*300)=288, 12 beyond; p97 leaves 9
		{200, 95},
		{68, 85}, // ceil(0.85*68)=58, 10 beyond
		{24, 58},
		{19, 0}, // even p51 (rank 10) leaves 9
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSpreadAndWorsening(t *testing.T) {
	if got := spread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread = %v, want 2/11", got)
	}
	if spread([]float64{5}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two samples is not 0")
	}
	if got := worsening(100, 110, false); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100->110 worsened by %v, want 0.10", got)
	}
	if got := worsening(100, 90, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100->90 worsened by %v, want 0.10", got)
	}
	if got := worsening(100, 110, true); got >= 0 {
		t.Errorf("higher-is-better 100->110 reads as worse (%v)", got)
	}
}
