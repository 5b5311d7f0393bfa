package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whowas/internal/core"
	"whowas/internal/httpd"
	"whowas/internal/metrics"
	"whowas/internal/trace"
)

func testServer(t *testing.T) (*httpd.Server, *metrics.Registry, *trace.Tracer) {
	t.Helper()
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Config{})
	rounds := []core.RoundReport{{Round: 0, Day: 0, Probed: 100, Responsive: 7}}
	s := New(Config{
		Metrics: reg,
		Tracer:  tr,
		Rounds:  func() []core.RoundReport { return rounds },
	})
	return s, reg, tr
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	body, _ := io.ReadAll(rr.Result().Body)
	return rr.Code, string(body)
}

// TestMetricsEndpoints checks the wiring only — Config.Metrics reaches
// the shared surface; internal/httpd tests the surface itself.
func TestMetricsEndpoints(t *testing.T) {
	s, reg, _ := testServer(t)
	reg.Counter("scanner.probes").Add(42)
	if code, body := get(t, s.Handler(), "/metrics/prom"); code != 200 ||
		!strings.Contains(body, "whowas_scanner_probes_total 42") {
		t.Errorf("/metrics/prom = %d, missing the registry's counter:\n%s", code, body)
	}
}

func TestRounds(t *testing.T) {
	s, _, _ := testServer(t)
	code, body := get(t, s.Handler(), "/rounds")
	if code != 200 {
		t.Fatalf("/rounds status %d", code)
	}
	var rounds []core.RoundReport
	if err := json.Unmarshal([]byte(body), &rounds); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 || rounds[0].Responsive != 7 {
		t.Errorf("rounds %+v", rounds)
	}
}

func TestTraceEndpoints(t *testing.T) {
	s, _, tr := testServer(t)

	active := tr.Start("round", nil, trace.Int("round", 0))
	done := tr.Start("scan", active)
	time.Sleep(time.Millisecond)
	done.End()

	code, body := get(t, s.Handler(), "/trace/active")
	if code != 200 {
		t.Fatalf("/trace/active status %d", code)
	}
	var spans []trace.SpanSnapshot
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "round" || !spans[0].Active {
		t.Errorf("active spans %+v", spans)
	}

	code, body = get(t, s.Handler(), "/trace/slowest?n=5")
	if code != 200 {
		t.Fatalf("/trace/slowest status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "scan" || spans[0].DurNS <= 0 {
		t.Errorf("slowest spans %+v", spans)
	}

	if code, _ := get(t, s.Handler(), "/trace/slowest?n=bogus"); code != 400 {
		t.Errorf("bogus n status %d, want 400", code)
	}
	active.End()
}

func TestNilConfigServesEmpty(t *testing.T) {
	s := New(Config{})
	for _, path := range []string{"/rounds", "/trace/active", "/trace/slowest"} {
		if code, _ := get(t, s.Handler(), path); code != 200 {
			t.Errorf("%s status %d with zero config", path, code)
		}
	}
}

// TestStartAndShutdown drives the CLIs' use of the endpoint: bind,
// answer an ops route over a real socket, stop.
func TestStartAndShutdown(t *testing.T) {
	var announced strings.Builder
	stop, err := Serve(&announced, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	url, ok := strings.CutPrefix(strings.TrimSpace(announced.String()), "ops endpoint listening on ")
	if !ok {
		t.Fatalf("Serve announced %q", announced.String())
	}
	resp, err := http.Get(url + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("live /rounds status %d", resp.StatusCode)
	}
	stop()
	if _, err := http.Get(url + "/rounds"); err == nil {
		t.Error("server still answering after stop")
	}
	if _, err := Serve(&announced, "not-an-address", Config{}); err == nil {
		t.Error("Serve bound an unparsable address")
	}
}
