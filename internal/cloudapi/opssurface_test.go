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
	// port still count as dials (the tunnel opened; the simulated dial
	// failed). Use a short budget so the refused/timeout answer is fast.
	dial := func(session string) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if session != "" {
			ctx = netsim.WithProbeSession(ctx, session)
		}
		if c, err := client.DialContext(ctx, "tcp", "203.0.113.1:9"); err == nil {
			c.Close()
		}
	}
	dial("")
	dial("s1")

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

	// A garbage preamble counts as a preamble error.
	dataAddr := srv.DataAddrs()[0]
	conn, err := net.Dial("tcp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.WriteString(conn, "NOT-A-PREAMBLE\n")
	_, _ = io.ReadAll(conn)
	conn.Close()
	if got := reg.Counter("cloudd.preamble_errors").Load(); got < 1 {
		t.Errorf("cloudd.preamble_errors = %d, want >= 1", got)
	}
}
