package fleetobs

import (
	"testing"
	"time"

	"whowas/internal/metrics"
	"whowas/internal/trace"
)

func report(worker string, probes int64) *WorkerReport {
	r := metrics.NewRegistry()
	r.Counter("scanner.probes").Add(probes)
	r.Counter("scanner.responsive_ips").Add(probes / 2)
	r.Counter("fetcher.pages").Add(probes / 4)
	return &WorkerReport{Worker: worker, Metrics: r.Snapshot()}
}

func TestCollectorReport(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("scanner.probes").Add(42)
	tr := trace.New(trace.Config{})
	tr.Start("scan", nil).End()

	c := &Collector{Worker: "w0", Metrics: reg, Tracer: tr}
	rep := c.Report()
	if rep.Worker != "w0" {
		t.Errorf("worker = %q", rep.Worker)
	}
	if rep.Metrics.Counters["scanner.probes"] != 42 {
		t.Errorf("metrics not snapshotted: %+v", rep.Metrics)
	}
	if len(rep.Slowest) != 1 || rep.Slowest[0].Name != "scan" {
		t.Errorf("slowest = %+v", rep.Slowest)
	}

	// Nil receiver and nil components must be inert.
	var nc *Collector
	if nc.Report() != nil {
		t.Error("nil collector produced a report")
	}
	empty := (&Collector{Worker: "w1"}).Report()
	if empty.Metrics.Counters != nil || empty.Slowest != nil {
		t.Errorf("collector without sources not empty: %+v", empty)
	}
}

func TestRestampSpans(t *testing.T) {
	in := []trace.SpanSnapshot{
		{ID: 3, Name: "scan", Attrs: map[string]string{"regions": "r1"}},
		{ID: 4, Parent: 3, Name: "probe"},
		{ID: 9, Parent: 77, Name: "orphan"}, // parent outside the batch
	}
	out := RestampSpans(in, 100, 50, WorkerAttrs("w0", 2, 1))
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].ID != 100 || out[1].ID != 101 || out[2].ID != 102 {
		t.Errorf("ids not renumbered: %d %d %d", out[0].ID, out[1].ID, out[2].ID)
	}
	if out[0].Parent != 50 {
		t.Errorf("root span not parented onto round: %d", out[0].Parent)
	}
	if out[1].Parent != 100 {
		t.Errorf("in-batch parent not remapped: %d", out[1].Parent)
	}
	if out[2].Parent != 50 {
		t.Errorf("dangling parent not reparented onto round: %d", out[2].Parent)
	}
	for i, s := range out {
		if s.Attrs["worker"] != "w0" || s.Attrs["round"] != "2" || s.Attrs["shard"] != "1" {
			t.Errorf("span %d missing stamp: %+v", i, s.Attrs)
		}
	}
	if out[0].Attrs["regions"] != "r1" {
		t.Errorf("original attrs lost: %+v", out[0].Attrs)
	}
	// Input untouched.
	if in[0].ID != 3 || in[0].Attrs["worker"] != "" {
		t.Errorf("input mutated: %+v", in[0])
	}
	if RestampSpans(nil, 1, 2, nil) != nil {
		t.Error("empty restamp not nil")
	}
}

func TestAggregatorRatesAndView(t *testing.T) {
	a := NewAggregator()
	t0 := time.Unix(1000, 0)
	a.Observe(report("w0", 100), t0)
	a.Observe(report("w1", 0), t0)
	// One second later w0 probed 50 more; w1 sat idle.
	a.Observe(report("w0", 150), t0.Add(time.Second))
	a.Observe(report("w1", 0), t0.Add(time.Second))

	leases := []LeaseState{{Worker: "w0", Rate: 200, ExpiresInMS: 900}}
	view := a.View(t0.Add(2*time.Second), leases)
	if len(view.Workers) != 2 {
		t.Fatalf("workers = %d", len(view.Workers))
	}
	w0 := view.Workers[0]
	if w0.Worker != "w0" {
		t.Fatalf("rows not sorted: %q first", w0.Worker)
	}
	if w0.ProbesPerSec < 49 || w0.ProbesPerSec > 51 {
		t.Errorf("w0 rate = %g, want ~50", w0.ProbesPerSec)
	}
	if w0.Probes != 150 || w0.Responsive != 75 {
		t.Errorf("w0 counters: %+v", w0)
	}
	if w0.Lease == nil || w0.Lease.Rate != 200 {
		t.Errorf("w0 lease missing: %+v", w0.Lease)
	}
	if view.Workers[1].Lease != nil {
		t.Error("w1 shows a lease it does not hold")
	}
	if w0.SeenAgoMS != 1000 {
		t.Errorf("seen ago = %dms, want 1000", w0.SeenAgoMS)
	}
	if view.Fleet.Counters["scanner.probes"] != 150 {
		t.Errorf("fleet merge: %+v", view.Fleet.Counters)
	}
	if view.ProbesPerSec != w0.ProbesPerSec {
		t.Errorf("fleet rate %g != sum of worker rates", view.ProbesPerSec)
	}

	// A counter that goes backwards (worker restart) must not produce
	// a negative rate.
	a.Observe(report("w0", 10), t0.Add(3*time.Second))
	view = a.View(t0.Add(3*time.Second), nil)
	if view.Workers[0].ProbesPerSec != 0 {
		t.Errorf("restart rate = %g, want 0", view.Workers[0].ProbesPerSec)
	}
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	for i := 0; i < 5; i++ {
		h.Append(StatusRecord{TimeMS: int64(i), Event: "submit", Round: i})
	}
	if h.Total() != 5 {
		t.Errorf("total = %d, want 5", h.Total())
	}
	recs := h.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Round != i+2 {
			t.Errorf("record %d is round %d, want %d (oldest-first tail)", i, r.Round, i+2)
		}
	}

	var nh *History
	nh.Append(StatusRecord{})
	if nh.Snapshot() != nil || nh.Total() != 0 {
		t.Error("nil history not inert")
	}
}

func TestAggregatorNilAndUnknown(t *testing.T) {
	var a *Aggregator
	a.Observe(report("w0", 1), time.Now())
	if v := a.View(time.Now(), nil); len(v.Workers) != 0 {
		t.Error("nil aggregator produced workers")
	}
	if a.History() != nil || a.Snapshots() != nil {
		t.Error("nil aggregator not inert")
	}

	real := NewAggregator()
	real.Observe(nil, time.Now())
	real.Observe(&WorkerReport{}, time.Now())
	if len(real.Snapshots()) != 0 {
		t.Error("anonymous report folded in")
	}
}
