package fetcher

import (
	"context"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/metrics"
	"whowas/internal/scanner"
	"whowas/internal/store"
)

func TestWithDefaults(t *testing.T) {
	got := Config{}.WithDefaults()
	if got.Workers != 250 || got.Timeout != 10*time.Second {
		t.Errorf("resolved defaults = %+v", got)
	}
	custom := Config{Workers: 5}.WithDefaults()
	if custom.Workers != 5 {
		t.Errorf("custom config clobbered: %+v", custom)
	}
	base := Config{}
	_ = base.WithDefaults()
	if base.Workers != 0 {
		t.Error("WithDefaults mutated its receiver")
	}
}

func TestFetcherMetrics(t *testing.T) {
	cloud, net, _ := testSetup(t)
	reg := metrics.NewRegistry()
	f, err := New(net, Config{Workers: 8, Timeout: 5 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ip := findIP(t, cloud, webPred(cloudsim.HTTPBoth))
	page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTP | store.PortHTTPS})
	if page.Err != nil {
		t.Fatalf("fetch failed: %v", page.Err)
	}
	snap := reg.Snapshot()
	// robots.txt + page GET.
	if got := snap.Counters["fetcher.gets"]; got < 1 || got > 2 {
		t.Errorf("fetcher.gets = %d, want 1-2", got)
	}
	if snap.Counters["fetcher.pages"] != 1 {
		t.Errorf("fetcher.pages = %d", snap.Counters["fetcher.pages"])
	}
	if page.Status == 200 && len(page.Body) > 0 && snap.Counters["fetcher.body_bytes"] <= 0 {
		t.Errorf("fetcher.body_bytes = %d with %d-byte body", snap.Counters["fetcher.body_bytes"], len(page.Body))
	}
	if snap.Histograms["fetcher.fetch_latency"].Count != 1 {
		t.Errorf("fetch_latency count = %d", snap.Histograms["fetcher.fetch_latency"].Count)
	}
	if gl := snap.Histograms["fetcher.get_latency"]; gl.Count != snap.Counters["fetcher.gets"] {
		t.Errorf("get_latency count %d != gets %d", gl.Count, snap.Counters["fetcher.gets"])
	}
}

func TestFetcherMetricsTransportError(t *testing.T) {
	cloud, net, _ := testSetup(t)
	reg := metrics.NewRegistry()
	f, err := New(net, Config{Workers: 8, Timeout: 2 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// An unbound IP refuses every connection: both GETs fail.
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return !s.Bound })
	page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTP})
	if page.Err == nil {
		t.Fatal("fetch of unbound IP succeeded")
	}
	snap := reg.Snapshot()
	if snap.Counters["fetcher.transport_errors"] < 1 {
		t.Errorf("fetcher.transport_errors = %d", snap.Counters["fetcher.transport_errors"])
	}
}
