package timeseries

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestPAAEmpty(t *testing.T) {
	if got := PAA(nil, 0, 7); got != nil {
		t.Errorf("PAA with totalDays=0 = %v, want nil", got)
	}
	if got := PAA(nil, 93, 0); got != nil {
		t.Errorf("PAA with windowDays=0 = %v, want nil", got)
	}
	got := PAA(nil, 93, 7)
	if len(got) != 13 { // round(93/7), matching the paper's dimension-13 vector
		t.Fatalf("PAA frame count = %d, want 13", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Errorf("empty-sample frame %d = %v, want 0", i, v)
		}
	}
}

func TestPAAFrameCount(t *testing.T) {
	cases := []struct{ total, window, frames int }{
		{93, 7, 13}, // paper: EC2 campaign -> dimension 13
		{62, 7, 9},  // paper: Azure campaign -> dimension 9
		{7, 7, 1}, {8, 7, 1}, {11, 7, 2}, {1, 7, 1},
	}
	for _, c := range cases {
		if got := len(PAA(nil, c.total, c.window)); got != c.frames {
			t.Errorf("PAA(total=%d, window=%d) frames = %d, want %d", c.total, c.window, got, c.frames)
		}
	}
}

func TestPAAMedianPerWindow(t *testing.T) {
	// Paper example: frame one covers days 0-6, frame two days 7-13.
	samples := []Sample{
		{Day: 0, Value: 10}, {Day: 3, Value: 3}, {Day: 6, Value: 20},
		{Day: 7, Value: 1}, {Day: 9, Value: 2}, {Day: 11, Value: 8}, {Day: 13, Value: 9},
	}
	got := PAA(samples, 14, 7)
	if len(got) != 2 {
		t.Fatalf("frames = %d, want 2", len(got))
	}
	if got[0] != 10 { // median of 10,3,20
		t.Errorf("frame 0 = %v, want 10", got[0])
	}
	if got[1] != 5 { // median of 1,2,8,9 = (2+8)/2
		t.Errorf("frame 1 = %v, want 5", got[1])
	}
}

func TestPAAIgnoresOutOfRange(t *testing.T) {
	samples := []Sample{{Day: -1, Value: 100}, {Day: 14, Value: 100}, {Day: 2, Value: 5}}
	got := PAA(samples, 14, 7)
	if got[0] != 5 || got[1] != 0 {
		t.Errorf("PAA = %v, want [5 0]", got)
	}
}

func TestTendencyPaperExamples(t *testing.T) {
	// From §8.1: D' = (1,2,3,1,1,1) -> D'' = (1,1,-1,0,0)
	got := Tendency([]float64{1, 2, 3, 1, 1, 1})
	want := []int{1, 1, -1, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tendency = %v, want %v", got, want)
	}
	// D' = (1,10,0,5,4,2) -> D'' = (1,-1,1,-1,-1)
	got = Tendency([]float64{1, 10, 0, 5, 4, 2})
	want = []int{1, -1, 1, -1, -1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tendency = %v, want %v", got, want)
	}
}

func TestTendencyShort(t *testing.T) {
	if got := Tendency(nil); got != nil {
		t.Errorf("Tendency(nil) = %v", got)
	}
	if got := Tendency([]float64{5}); got != nil {
		t.Errorf("Tendency(1 elem) = %v", got)
	}
}

func TestMergeRunsPaperExample(t *testing.T) {
	// (0,1,1,0,-1,-1) becomes (0,1,0,-1)
	got := MergeRuns([]int{0, 1, 1, 0, -1, -1})
	want := []int{0, 1, 0, -1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeRuns = %v, want %v", got, want)
	}
}

func TestMergeRunsProperties(t *testing.T) {
	prop := func(raw []int8) bool {
		in := make([]int, len(raw))
		for i, v := range raw {
			in[i] = int(v) % 2 // values in {-1,0,1}
			if v%3 == 2 {
				in[i] = -1
			}
		}
		out := MergeRuns(in)
		// No two adjacent equal values.
		for i := 1; i < len(out); i++ {
			if out[i] == out[i-1] {
				return false
			}
		}
		// Idempotent.
		return reflect.DeepEqual(MergeRuns(out), out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPatternStable(t *testing.T) {
	var samples []Sample
	for d := 0; d < 93; d += 3 {
		samples = append(samples, Sample{Day: d, Value: 4})
	}
	if got := Pattern(samples, 93); got != "0" {
		t.Errorf("stable cluster pattern = %q, want \"0\"", got)
	}
}

func TestPatternGrowthSpike(t *testing.T) {
	// Flat, then up, then back: the paper's 0,1,0,-1,0 style pattern.
	var samples []Sample
	for d := 0; d < 93; d++ {
		v := 2.0
		if d >= 30 && d < 60 {
			v = 10
		}
		samples = append(samples, Sample{Day: d, Value: v})
	}
	got := Pattern(samples, 93)
	if got != "0,1,0,-1,0" {
		t.Errorf("spike pattern = %q, want \"0,1,0,-1,0\"", got)
	}
}

func TestPatternEphemeral(t *testing.T) {
	// A cluster seen on only one of the campaign's rounds has median 0
	// in every frame (the vector D carries zeros for absent rounds),
	// i.e. pattern "0" -- the paper's "ephemeral" subgroup of pattern 0.
	var samples []Sample
	for d := 0; d < 93; d += 3 {
		v := 0.0
		if d == 21 { // frame 3 holds samples for days 21, 24, 27: median 0
			v = 1
		}
		samples = append(samples, Sample{Day: d, Value: v})
	}
	if got := Pattern(samples, 93); got != "0" {
		t.Errorf("ephemeral pattern = %q, want \"0\"", got)
	}
}

// (Named for ParsePattern too, which went with its last caller; the
// name stays so the test keeps its id.)
func TestPatternStringAndParse(t *testing.T) {
	cases := []struct {
		vec []int
		s   string
	}{
		{nil, "0"},
		{[]int{0}, "0"},
		{[]int{0, 1, 0}, "0,1,0"},
		{[]int{0, -1, 1, 0}, "0,-1,1,0"},
	}
	for _, c := range cases {
		if got := PatternString(c.vec); got != c.s {
			t.Errorf("PatternString(%v) = %q, want %q", c.vec, got, c.s)
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 {
		t.Error("empty CDF At != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF quantile not NaN")
	}
	if pts := c.Points(); len(pts) != 0 {
		t.Errorf("empty CDF Points = %v", pts)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0.5); q != 30 {
		t.Errorf("median = %v, want 30", q)
	}
	if q := c.Quantile(0); q != 10 {
		t.Errorf("q0 = %v, want 10", q)
	}
	if q := c.Quantile(1); q != 50 {
		t.Errorf("q1 = %v, want 50", q)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	prop := func(raw []float64) bool {
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		pts := NewCDF(raw).Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].Y < pts[i-1].Y {
				return false
			}
		}
		return len(pts) == 0 || pts[len(pts)-1].Y == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCDFAtMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = math.Floor(rng.Float64() * 20)
	}
	c := NewCDF(vals)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for x := -1.0; x <= 21; x += 0.5 {
		count := 0
		for _, v := range vals {
			if v <= x {
				count++
			}
		}
		want := float64(count) / float64(len(vals))
		if got := c.At(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 || s.Mean != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v", empty)
	}
}

func TestGrowth(t *testing.T) {
	abs, frac := Growth([]float64{100, 110, 103.3})
	if abs != 3.3000000000000114 && math.Abs(abs-3.3) > 1e-9 {
		t.Errorf("abs = %v", abs)
	}
	if math.Abs(frac-0.033) > 1e-9 {
		t.Errorf("frac = %v", frac)
	}
	if a, f := Growth(nil); a != 0 || f != 0 {
		t.Errorf("Growth(nil) = %v,%v", a, f)
	}
	if a, f := Growth([]float64{0, 10}); a != 10 || f != 0 {
		t.Errorf("Growth from 0 = %v,%v", a, f)
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func BenchmarkPattern(b *testing.B) {
	var samples []Sample
	rng := rand.New(rand.NewSource(1))
	for d := 0; d < 93; d++ {
		samples = append(samples, Sample{Day: d, Value: float64(rng.Intn(100))})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pattern(samples, 93)
	}
}
