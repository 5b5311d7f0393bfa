package scanner

import (
	"testing"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/ratelimit"
)

func TestWithDefaults(t *testing.T) {
	got := Config{}.WithDefaults()
	if got.Rate != 250 || got.Timeout != 2*time.Second || got.Workers != 64 {
		t.Errorf("resolved defaults = %+v", got)
	}
	// Caller-set fields survive.
	custom := Config{Rate: 10, Timeout: time.Second, Workers: 3}.WithDefaults()
	if custom.Rate != 10 || custom.Timeout != time.Second || custom.Workers != 3 {
		t.Errorf("custom config clobbered: %+v", custom)
	}
	// Value semantics: the receiver is untouched.
	base := Config{}
	_ = base.WithDefaults()
	if base.Rate != 0 {
		t.Error("WithDefaults mutated its receiver")
	}
}

func TestScannerMetrics(t *testing.T) {
	cloud, net := testSetup(t)
	reg := metrics.NewRegistry()
	clock := ratelimit.NewFakeClock(time.Unix(0, 0))
	s, err := New(net, Config{Rate: 1e6, Workers: 32, Clock: clock, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	bl := ipaddr.NewSet()
	first, _ := cloud.Ranges().AtIndex(0)
	bl.Add(first)
	_, stats := collectScan(t, s, cloud.Ranges(), bl)

	snap := reg.Snapshot()
	if got := snap.Counters["scanner.probes"]; got != stats.Probes {
		t.Errorf("scanner.probes = %d, stats say %d", got, stats.Probes)
	}
	if got := snap.Counters["scanner.probed_ips"]; got != stats.Probed {
		t.Errorf("scanner.probed_ips = %d, stats say %d", got, stats.Probed)
	}
	if got := snap.Counters["scanner.skipped_ips"]; got != 1 {
		t.Errorf("scanner.skipped_ips = %d, want 1", got)
	}
	if got := snap.Counters["scanner.responsive_ips"]; got != stats.Responsive {
		t.Errorf("scanner.responsive_ips = %d, stats say %d", got, stats.Responsive)
	}
	lat := snap.Histograms["scanner.probe_latency"]
	if lat.Count != stats.Probes {
		t.Errorf("probe latency count = %d, want %d", lat.Count, stats.Probes)
	}
	if lat.P99MS < lat.P50MS {
		t.Errorf("latency percentiles inverted: %+v", lat)
	}
	// The rate limiter was active, so wait time was tracked: one pass
	// per probe, and sum_ms is the total wait (the mean is truncated to
	// whole nanoseconds, at most one per pass).
	wait := snap.Histograms["scanner.limiter_wait"]
	if wait.Count != stats.Probes {
		t.Errorf("limiter_wait passes = %d, want %d", wait.Count, stats.Probes)
	}
	if d := wait.SumMS - wait.MeanMS*float64(wait.Count); wait.SumMS <= 0 || d < 0 || d > 1e-6*float64(wait.Count) {
		t.Errorf("limiter_wait sum_ms = %v, mean_ms × passes = %v", wait.SumMS, wait.MeanMS*float64(wait.Count))
	}
}

func TestScannerNilMetricsIsNoop(t *testing.T) {
	cloud, net := testSetup(t)
	s := fastScanner(t, net)
	if s.mProbes != nil || s.mProbeLat != nil || s.mLimiterWait != nil {
		t.Error("scanner without a registry holds live handles")
	}
	// The uninstrumented path still scans correctly.
	got, stats := collectScan(t, s, cloud.Ranges(), nil)
	if int64(len(got)) != stats.Responsive || stats.Probed == 0 {
		t.Errorf("uninstrumented scan: %d results, stats %+v", len(got), stats)
	}
}
