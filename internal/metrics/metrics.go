// Package metrics is WhoWas's pipeline instrumentation library: a
// small, dependency-free set of atomic counters, gauges and lock-cheap
// latency histograms (which also time pipeline stages), collected
// under a named Registry that snapshots to a plain struct and
// marshals to JSON.
//
// The platform (internal/core) owns one Registry per measurement
// deployment and threads it through the scanner, fetcher, store,
// clustering and cartography configs; the CLIs dump its snapshot with
// the -metrics flag. The paper's pipeline (§4, Figure 1) is a
// long-running measurement campaign — knowing per round how fast
// scanning ran, what failed, and where time went is what makes the
// ROADMAP's "as fast as the hardware allows" goal measurable at all.
//
// Every handle type tolerates a nil receiver as a no-op, and a nil
// *Registry hands out nil handles, so instrumented code needs no
// branching: constructing a component with a nil registry yields the
// uninstrumented fast path (components skip clock reads when their
// latency handles are nil). All operations are safe for concurrent
// use; hot-path updates are single atomic adds.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is ready to
// use; a nil *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets covers 1 µs .. ~2.3 days in powers of two; observations
// beyond either end clamp into the edge buckets.
const numBuckets = 38

// Histogram is a lock-free latency histogram over exponential
// (power-of-two microsecond) buckets. Observing is two atomic adds
// plus one per-bucket add; quantiles are estimated at snapshot time by
// linear interpolation within the covering bucket. A nil *Histogram is
// a valid no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; math.MaxInt64 when empty
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a duration to its power-of-two microsecond bucket:
// bucket i covers [2^(i-1) µs, 2^i µs), with i clamped to the edges.
func bucketIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us) // 0 for sub-microsecond observations
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// bucketBound returns the exclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Duration(uint64(time.Microsecond) << uint(i))
}

// Observe records one duration. Negative observations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Time starts a timed pass and returns a function that observes its
// elapsed time — how pipeline stages are timed. Usage: defer h.Time()().
func (h *Histogram) Time() func() {
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by walking the bucket
// cumulative counts and interpolating linearly inside the covering
// bucket. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := time.Duration(0)
			if i > 0 {
				lower = bucketBound(i - 1)
			}
			upper := bucketBound(i)
			// The top bucket is open-ended; its observations clamp into
			// it, so interpolate toward the observed max instead.
			if i == numBuckets-1 {
				if mx := time.Duration(h.max.Load()); mx > upper {
					upper = mx
				}
			}
			// Position of the rank inside this bucket, in (0, 1].
			frac := float64(rank-cum) / float64(n)
			est := lower + time.Duration(frac*float64(upper-lower))
			// Never report beyond the observed extremes.
			if mx := time.Duration(h.max.Load()); est > mx {
				est = mx
			}
			if mn := time.Duration(h.min.Load()); est < mn {
				est = mn
			}
			return est
		}
		cum += n
	}
	return time.Duration(h.max.Load())
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Registry is a named collection of instruments. Handles are created
// on first use and cached, so components look them up once at
// construction and pay only atomic-add costs afterwards. A nil
// *Registry hands out nil (no-op) handles, which is how instrumentation
// is disabled wholesale.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Returns
// nil (a no-op handle) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's point-in-time summary.
// Durations are reported in milliseconds for JSON readability; SumMS
// is exact, so a stage's total time is its histogram's sum.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	MeanMS float64 `json:"mean_ms"`
	MinMS  float64 `json:"min_ms"`
	MaxMS  float64 `json:"max_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Snapshot is a plain, JSON-marshalable copy of every instrument in a
// registry. Map keys marshal in sorted order, so snapshots of the same
// registry state are byte-identical.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Snapshot copies the registry's current state. A nil registry yields
// a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		out.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			out.Counters[name] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		out.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			out.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			out.Histograms[name] = HistogramSnapshot{
				Count:  h.Count(),
				SumMS:  ms(time.Duration(h.sum.Load())),
				MeanMS: ms(h.Mean()),
				MinMS:  ms(h.Min()),
				MaxMS:  ms(h.Max()),
				P50MS:  ms(h.Quantile(0.50)),
				P95MS:  ms(h.Quantile(0.95)),
				P99MS:  ms(h.Quantile(0.99)),
			}
		}
	}
	return out
}
