package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"whowas/internal/trace"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("y")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	// None of these may panic.
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	h.Time()()
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 {
		t.Error("nil handles accumulated state")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("nil histogram reported non-zero stats")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Histograms != nil {
		t.Error("nil registry snapshot not empty")
	}
}

// TestNilHandlesAreNoOps calls every exported method of the metrics
// and trace handle types on a typed nil receiver, with zero-value
// arguments (io.Discard for a writer), so a method added later is held
// to the "nil handle is a no-op" contract without being named here.
func TestNilHandlesAreNoOps(t *testing.T) {
	for _, h := range []any{(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil),
		(*Registry)(nil), (*trace.Tracer)(nil), (*trace.Span)(nil)} {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			m, mt := v.Method(i), v.Method(i).Type()
			args := make([]reflect.Value, mt.NumIn())
			for j := range args {
				args[j] = reflect.Zero(mt.In(j))
				if mt.In(j) == reflect.TypeFor[io.Writer]() {
					args[j] = reflect.ValueOf(io.Discard)
				}
			}
			if mt.IsVariadic() {
				args = args[:len(args)-1] // Call passes an empty variadic slice
			}
			t.Run(fmt.Sprintf("%T.%s", h, v.Type().Method(i).Name), func(t *testing.T) { m.Call(args) })
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// 1..1000 ms, uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Mean(), 500500*time.Microsecond; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if h.Min() != time.Millisecond || h.Max() != time.Second {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Power-of-two buckets bound the relative error of a quantile
	// estimate by 2x; check p50/p95/p99 land within that envelope.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Millisecond}, {0.95, 950 * time.Millisecond}, {0.99, 990 * time.Millisecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo, hi := c.want/2, c.want*2
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
	// Quantiles are clamped to the observed range.
	if h.Quantile(1.0) > h.Max() {
		t.Errorf("q1.0 = %v beyond max %v", h.Quantile(1.0), h.Max())
	}
	if h.Quantile(0.0001) < h.Min() {
		t.Errorf("q0.0001 = %v below min %v", h.Quantile(0.0001), h.Min())
	}
}

func TestHistogramEdgeObservations(t *testing.T) {
	h := newHistogram()
	h.Observe(-time.Second) // clamps to 0
	h.Observe(0)
	h.Observe(100 * time.Hour) // clamps into the top bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 {
		t.Errorf("min = %v, want 0", h.Min())
	}
	if h.Max() != 100*time.Hour {
		t.Errorf("max = %v", h.Max())
	}
	if q := h.Quantile(1.0); q != 100*time.Hour {
		t.Errorf("q1.0 = %v, want clamp to max", q)
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{
		0, time.Nanosecond, time.Microsecond, 10 * time.Microsecond,
		time.Millisecond, 100 * time.Millisecond, time.Second, time.Minute,
		time.Hour, 1000 * time.Hour,
	} {
		i := bucketIndex(d)
		if i < prev {
			t.Fatalf("bucketIndex(%v) = %d < previous %d", d, i, prev)
		}
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%v) = %d out of range", d, i)
		}
		prev = i
	}
}

// TestStage: a stage timer is a histogram — its count is the stage's
// passes and its snapshot's sum_ms the exact total time.
func TestStage(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scan")
	h.Observe(2 * time.Second)
	h.Observe(3*time.Second + 7*time.Nanosecond)
	if snap := r.Snapshot().Histograms["scan"]; snap.Count != 2 || snap.SumMS != 5000.000007 {
		t.Errorf("stage snapshot = %+v, want 2 passes / 5000.000007ms", snap)
	}
	h.Time()()
	if h.Count() != 3 {
		t.Errorf("Time() did not record a pass: count = %d", h.Count())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("scanner.probes").Add(42)
	r.Gauge("store.open_rounds").Set(1)
	r.Histogram("fetcher.get_latency").Observe(30 * time.Millisecond)

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v\n%s", err, buf.String())
	}
	if snap.Counters["scanner.probes"] != 42 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["store.open_rounds"] != 1 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	hs := snap.Histograms["fetcher.get_latency"]
	if hs.Count != 1 || hs.MaxMS != 30 || hs.SumMS != 30 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if math.Abs(hs.MeanMS-30) > 1e-9 {
		t.Errorf("mean_ms = %v", hs.MeanMS)
	}
}

// TestConcurrentUpdates exercises every instrument from many
// goroutines; run with -race to validate the lock-free hot paths.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(w*perWorker+i) * time.Microsecond)
				if i%500 == 0 {
					_ = r.Snapshot() // concurrent readers are allowed
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Each worker observes w*perWorker .. (w+1)*perWorker-1 µs: the
	// sum over all of them is n(n-1)/2 µs for n observations.
	n := int64(workers * perWorker)
	if got, want := r.Snapshot().Histograms["h"].SumMS, ms(time.Duration(n*(n-1)/2)*time.Microsecond); got != want {
		t.Errorf("histogram sum = %vms, want %vms", got, want)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.RunParallel(func(pb *testing.PB) {
		d := time.Microsecond
		for pb.Next() {
			h.Observe(d)
			d += time.Microsecond
		}
	})
}
