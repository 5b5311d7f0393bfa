package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestWritePromRendersAllKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("scanner.probes").Add(123)
	r.Gauge("core.active-workers").Set(7)
	h := r.Histogram("fetcher.get_latency")
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	r.Histogram("core.scan").Observe(1500 * time.Millisecond)

	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb, "whowas"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE whowas_scanner_probes_total counter",
		"whowas_scanner_probes_total 123",
		"# TYPE whowas_core_active_workers gauge",
		"whowas_core_active_workers 7",
		"# TYPE whowas_fetcher_get_latency_seconds summary",
		`whowas_fetcher_get_latency_seconds{quantile="0.99"}`,
		"whowas_fetcher_get_latency_seconds_count 100",
		"# TYPE whowas_core_scan_seconds summary",
		"whowas_core_scan_seconds_sum 1.5",
		"whowas_core_scan_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, ".") && strings.Contains(out, "whowas_scanner.probes") {
		t.Error("unsanitized metric name in exposition")
	}

	// Deterministic rendering: same snapshot, same bytes.
	var sb2 strings.Builder
	if err := r.Snapshot().WriteProm(&sb2, "whowas"); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("two renders of the same snapshot differ")
	}
}

func TestWritePromEmptySnapshot(t *testing.T) {
	var sb strings.Builder
	if err := (Snapshot{}).WriteProm(&sb, "whowas"); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("empty snapshot rendered %q", sb.String())
	}
}
