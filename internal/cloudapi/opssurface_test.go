package cloudapi

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whowas/internal/httpd"
	"whowas/internal/metrics"
	"whowas/internal/netsim"
)

// TestDaemonOpsSurface proves the daemon's wiring into the shared
// control-plane stack (internal/httpd tests the stack itself): the
// cloudd.* instruments back /metrics and /metrics/prom and move as
// traffic flows, /healthz carries the simulated day, the daemon's own
// routes sit behind the method gate, and a refusal's reason reaches
// the wire client's error.
func TestDaemonOpsSurface(t *testing.T) {
	backing, err := NewInProcess(conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := NewServer(backing, ServerConfig{DataListeners: 1, Metrics: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	client, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	// One ordinary dial and one session-stamped dial against a dead
	// port still count as dials (the daemon made the simulated dial; it
	// failed). Use a short budget so the refused/timeout answer is fast.
	dial := func(session, address string) net.Conn {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if session != "" {
			ctx = netsim.WithProbeSession(ctx, session)
		}
		c, err := dialRetry(ctx, client, address)
		if err != nil {
			return nil
		}
		return c
	}
	dial("", "203.0.113.1:9")
	dial("s1", "203.0.113.1:9")
	// An open port, used: parked on OK, then attached as a tunnel.
	web, _, _ := findConformanceIPs3(t, backing, 0)
	open := dial("", web.String()+":80")
	if open == nil {
		t.Fatalf("dial of web host %s failed", web)
	}
	defer open.Close()
	if got := reg.Gauge("cloudd.parked_conns").Load(); got != 1 {
		t.Errorf("cloudd.parked_conns = %d with one open, unused connection, want 1", got)
	}
	if err := open.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatalf("attaching the tunnel: %v", err)
	}

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	resp, body := get("/metrics")
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics (%d) not a snapshot: %v", resp.StatusCode, err)
	}
	if snap.Counters["cloudd.dials"] < 2 {
		t.Errorf("cloudd.dials = %d, want >= 2", snap.Counters["cloudd.dials"])
	}
	if snap.Counters["cloudd.session_dials"] < 1 {
		t.Errorf("cloudd.session_dials = %d, want >= 1", snap.Counters["cloudd.session_dials"])
	}
	if snap.Counters["cloudd.control_requests"] < 1 {
		t.Errorf("cloudd.control_requests = %d, want >= 1", snap.Counters["cloudd.control_requests"])
	}
	// The data plane so far: one probe channel (one listener) carrying
	// every dial, and one tunnel for the one connection that was used.
	for name, want := range map[string]int64{
		"cloudd.data_accepts": 2,
		"cloudd.attaches":     1,
		"cloudd.dial_errors":  snap.Counters["cloudd.dials"] - 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{
		"cloudd.probe_channels": 1,
		"cloudd.parked_conns":   0,
		"cloudd.active_tunnels": 1,
	} {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Counters["cloudd.verdict_flushes"]; got < 1 || got > snap.Counters["cloudd.dials"]+1 {
		t.Errorf("cloudd.verdict_flushes = %d for %d dials", got, snap.Counters["cloudd.dials"])
	}
	if _, body = get("/metrics/prom"); !strings.Contains(body, "whowas_cloudd_dials_total") {
		t.Errorf("prom exposition missing cloudd dials: %q", body)
	}

	if err := client.SetDay(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if _, body = get("/healthz"); !strings.Contains(body, `"day": 2`) {
		t.Errorf("/healthz does not report the simulated day: %q", body)
	}

	// Read-only routes answer the stack's JSON 405; /cloud/day admits
	// POST beside GET.
	for path, allow := range map[string]string{
		"/cloud/info":     "GET, HEAD",
		"/truth/snapshot": "GET, HEAD",
		"/dns/public":     "GET, HEAD",
		"/cloud/day":      "GET, POST, HEAD",
	} {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("DELETE", path, nil))
		var doc httpd.ErrorDoc
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); rr.Code != http.StatusMethodNotAllowed ||
			rr.Header().Get("Allow") != allow || err != nil || doc.Error == "" {
			t.Errorf("DELETE %s = %d, Allow %q, body %q; want a JSON 405 allowing %s",
				path, rr.Code, rr.Header().Get("Allow"), rr.Body, allow)
		}
	}

	// A refused request's reason crosses the wire into the client error.
	wantErr := backing.SetDay(context.Background(), -1)
	if wantErr == nil {
		t.Fatal("in-process SetDay(-1) accepted")
	}
	want := "cloudapi: POST /cloud/day: 400 Bad Request: " + wantErr.Error()
	if err := client.SetDay(context.Background(), -1); err == nil || err.Error() != want {
		t.Errorf("wire SetDay(-1) error %q, want %q", err, want)
	}

	// A garbage opening line counts as a preamble error and is answered
	// ERR; so is the per-dial preamble this protocol replaced.
	dataAddr := srv.DataAddrs()[0]
	for i, opening := range []string{"NOT-A-PREAMBLE\n", "WHOWAS1 203.0.113.1:9 2000\n"} {
		conn, err := net.Dial("tcp", dataAddr)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(conn, opening)
		answer, _ := io.ReadAll(conn)
		conn.Close()
		if !strings.HasPrefix(string(answer), "ERR ") {
			t.Errorf("opening %q answered %q, want ERR", opening, answer)
		}
		if got := reg.Counter("cloudd.preamble_errors").Load(); got != int64(i+1) {
			t.Errorf("cloudd.preamble_errors = %d after %d bad openings", got, i+1)
		}
	}

	// A malformed frame closes the probe channel it arrived on.
	conn, err := net.Dial("tcp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _ = io.WriteString(conn, "PROBE\n\x7fjunk")
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("probe channel after a malformed frame: %v, want it closed", err)
	}
}

// TestProbePathAllocsIgnoreMetrics: the daemon's instruments cost the
// probe path no allocation — handling a DIAL frame allocates the same
// with a registry as without one.
func TestProbePathAllocsIgnoreMetrics(t *testing.T) {
	backing, err := NewInProcess(conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, unbound, _ := findConformanceIPs3(t, backing, 0)
	perDial := func(reg *metrics.Registry) float64 {
		srv := NewServer(backing, ServerConfig{Metrics: reg})
		ch := &serverChannel{parked: make(map[uint32]net.Conn)}
		f := clientFrame{typ: frameDial, id: 1, budgetMS: 2000, address: []byte(unbound.String() + ":80"), session: []byte("s1")}
		var last dialCtx
		return testing.AllocsPerRun(200, func() {
			if status, _ := srv.dial(ch, &f, &last); status != verdictTimeout {
				t.Fatalf("dial of unbound %s: status %d", unbound, status)
			}
		})
	}
	if bare, instrumented := perDial(nil), perDial(metrics.NewRegistry()); bare != instrumented {
		t.Errorf("a DIAL frame costs %.1f allocations with a registry, %.1f without", instrumented, bare)
	}
}
