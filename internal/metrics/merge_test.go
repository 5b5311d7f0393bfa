package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMergeSnapshotsSums(t *testing.T) {
	a := NewRegistry()
	a.Counter("scanner.probes").Add(100)
	a.Gauge("core.active").Set(2)
	a.Histogram("core.scan").Observe(time.Second)
	b := NewRegistry()
	b.Counter("scanner.probes").Add(50)
	b.Counter("fetcher.fetched").Add(7)
	b.Gauge("core.active").Set(3)
	b.Histogram("core.scan").Observe(2 * time.Second)

	m := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if got := m.Counters["scanner.probes"]; got != 150 {
		t.Errorf("scanner.probes = %d, want 150", got)
	}
	if got := m.Counters["fetcher.fetched"]; got != 7 {
		t.Errorf("fetcher.fetched = %d, want 7", got)
	}
	if got := m.Gauges["core.active"]; got != 5 {
		t.Errorf("core.active = %d, want 5", got)
	}
	st := m.Histograms["core.scan"]
	if st.Count != 2 || st.SumMS != 3000 || st.MeanMS != 1500 {
		t.Errorf("core.scan = %+v, want 2 passes / 3000ms", st)
	}
}

func TestMergeSnapshotsHistograms(t *testing.T) {
	a := NewRegistry()
	ha := a.Histogram("probe")
	for i := 0; i < 100; i++ {
		ha.Observe(10 * time.Millisecond)
	}
	b := NewRegistry()
	hb := b.Histogram("probe")
	for i := 0; i < 300; i++ {
		hb.Observe(30 * time.Millisecond)
	}

	m := MergeSnapshots(a.Snapshot(), b.Snapshot())
	h := m.Histograms["probe"]
	if h.Count != 400 {
		t.Fatalf("count = %d, want 400", h.Count)
	}
	// Weighted mean: (100*10 + 300*30) / 400 = 25ms.
	if math.Abs(h.MeanMS-25) > 1 {
		t.Errorf("mean = %gms, want ~25ms", h.MeanMS)
	}
	if h.MinMS > 11 || h.MinMS <= 0 {
		t.Errorf("min = %gms, want ~10ms", h.MinMS)
	}
	if h.MaxMS < 29 {
		t.Errorf("max = %gms, want ~30ms", h.MaxMS)
	}
	// Quantiles are count-weighted approximations; with a 1:3 split
	// the merged p50 must land between the two inputs, closer to b.
	if h.P50MS <= a.Snapshot().Histograms["probe"].P50MS || h.P50MS > h.MaxMS {
		t.Errorf("p50 = %gms out of range", h.P50MS)
	}
}

func TestMergeSnapshotsEmptyAndZero(t *testing.T) {
	if m := MergeSnapshots(); m.Counters != nil || m.Histograms != nil {
		t.Errorf("merge of nothing not zero: %+v", m)
	}
	r := NewRegistry()
	r.Counter("c").Inc()
	m := MergeSnapshots(Snapshot{}, r.Snapshot(), Snapshot{})
	if m.Counters["c"] != 1 {
		t.Errorf("zero snapshots perturbed merge: %+v", m)
	}
	// Empty histograms (count 0) must not drag the min to zero.
	empty := Snapshot{Histograms: map[string]HistogramSnapshot{"h": {}}}
	full := NewRegistry()
	full.Histogram("h").Observe(5 * time.Millisecond)
	m = MergeSnapshots(empty, full.Snapshot())
	if h := m.Histograms["h"]; h.Count != 1 || h.MinMS <= 0 {
		t.Errorf("empty histogram polluted merge: %+v", h)
	}
}

func TestWritePromSeriesLabels(t *testing.T) {
	w0 := NewRegistry()
	w0.Counter("scanner.probes").Add(10)
	w0.Histogram("probe").Observe(time.Millisecond)
	w0.Histogram("scan").Observe(time.Second)
	w1 := NewRegistry()
	w1.Counter("scanner.probes").Add(20)

	var sb strings.Builder
	err := WritePromSeries(&sb, "whowas", []LabeledSnapshot{
		{Snap: MergeSnapshots(w0.Snapshot(), w1.Snapshot())},
		{Labels: []Label{{Key: "worker", Value: "w0"}}, Snap: w0.Snapshot()},
		{Labels: []Label{{Key: "worker", Value: "w1"}}, Snap: w1.Snapshot()},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"whowas_scanner_probes_total 30",
		`whowas_scanner_probes_total{worker="w0"} 10`,
		`whowas_scanner_probes_total{worker="w1"} 20`,
		`whowas_probe_seconds{worker="w0",quantile="0.5"}`,
		`whowas_probe_seconds_count{worker="w0"} 1`,
		`whowas_scan_seconds_sum{worker="w0"} 1`,
		`whowas_scan_seconds_count{worker="w0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A metric name must carry exactly one TYPE line no matter how
	// many series report it — repeating it is a format violation.
	if n := strings.Count(out, "# TYPE whowas_scanner_probes_total counter"); n != 1 {
		t.Errorf("TYPE line for shared counter appears %d times, want 1:\n%s", n, out)
	}
}

func TestWritePromSeriesMatchesWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(4)
	r.Histogram("h").Observe(2 * time.Millisecond)
	snap := r.Snapshot()

	var a, b strings.Builder
	if err := snap.WriteProm(&a, "whowas"); err != nil {
		t.Fatal(err)
	}
	if err := WritePromSeries(&b, "whowas", []LabeledSnapshot{{Snap: snap}}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("single unlabeled series diverges from WriteProm:\n%q\nvs\n%q", a.String(), b.String())
	}
}

func TestWritePromSeriesEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	var sb strings.Builder
	err := WritePromSeries(&sb, "", []LabeledSnapshot{
		{Labels: []Label{{Key: "worker", Value: "a\"b\\c\nd"}}, Snap: r.Snapshot()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `worker="a\"b\\c\nd"`) {
		t.Errorf("label value not escaped: %q", sb.String())
	}
}
