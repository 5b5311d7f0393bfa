package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whowas/internal/metrics"
)

// echoDoc is the test route's request and answer.
type echoDoc struct {
	N int `json:"n"`
}

// testServer is a server with one route of each kind a daemon mounts:
// a read-only one and a body-decoding one that can also refuse.
func testServer(cfg Config) *Server {
	s := New(cfg)
	s.Handle("/read", func(w http.ResponseWriter, _ *http.Request) { WriteJSON(w, echoDoc{N: 1}) }, http.MethodGet)
	s.Handle("/echo", func(w http.ResponseWriter, r *http.Request) {
		var doc echoDoc
		if !DecodeBody(w, r, &doc) {
			return
		}
		if doc.N < 0 {
			WriteError(w, http.StatusConflict, "n must not be negative")
			return
		}
		WriteJSON(w, doc)
	}, http.MethodPost)
	return s
}

// TestServer is the one contract test of the stack every daemon
// serves from: the shared surface, the method gate, the error shape,
// the degraded-not-broken zero config, and the lifecycle.
func TestServer(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("scanner.probes").Add(42)
	full := testServer(Config{
		Metrics:  reg,
		Health:   func(doc map[string]any) { doc["day"] = 7 },
		Requests: reg.Counter("test.requests"),
	})
	custom := testServer(Config{Metrics: reg, Prom: func(w io.Writer) error {
		_, err := io.WriteString(w, "custom_exposition 1\n")
		return err
	}})
	bare := testServer(Config{})

	const jsonCT, promCT = "application/json", "text/plain; version=0.0.4"
	cases := []struct {
		name         string
		srv          *Server
		method, path string
		body         string
		status       int
		contentType  string // "" = not checked
		allow        string // expected Allow header on a 405
		contains     string // substring of the body
	}{
		{name: "healthz", srv: full, method: "GET", path: "/healthz", status: 200, contentType: jsonCT, contains: `"status": "ok"`},
		{name: "healthz-extra-field", srv: full, method: "GET", path: "/healthz", status: 200, contains: `"day": 7`},
		{name: "healthz-uptime", srv: bare, method: "GET", path: "/healthz", status: 200, contains: `"uptime_ns"`},
		{name: "metrics", srv: full, method: "GET", path: "/metrics", status: 200, contentType: jsonCT, contains: `"scanner.probes": 42`},
		{name: "prom", srv: full, method: "GET", path: "/metrics/prom", status: 200, contentType: promCT, contains: "whowas_scanner_probes_total 42"},
		{name: "prom-writer", srv: custom, method: "GET", path: "/metrics/prom", status: 200, contentType: promCT, contains: "custom_exposition 1\n"},
		{name: "pprof-index", srv: full, method: "GET", path: "/debug/pprof/", status: 200, contains: "goroutine"},
		{name: "pprof-cmdline", srv: full, method: "GET", path: "/debug/pprof/cmdline", status: 200},
		{name: "head-rides-get", srv: full, method: "HEAD", path: "/read", status: 200},
		{name: "405-on-shared-route", srv: full, method: "POST", path: "/metrics", status: 405, contentType: jsonCT, allow: "GET, HEAD", contains: `"error"`},
		{name: "405-on-read-route", srv: full, method: "DELETE", path: "/read", status: 405, contentType: jsonCT, allow: "GET, HEAD", contains: `"error"`},
		{name: "405-on-post-route", srv: full, method: "GET", path: "/echo", status: 405, contentType: jsonCT, allow: "POST", contains: `"error"`},
		{name: "body-decoded", srv: full, method: "POST", path: "/echo", body: `{"n": 3}`, status: 200, contentType: jsonCT, contains: `"n": 3`},
		{name: "malformed-body", srv: full, method: "POST", path: "/echo", body: `{"n": `, status: 400, contentType: jsonCT, contains: `"error"`},
		{name: "nil-registry-metrics", srv: bare, method: "GET", path: "/metrics", status: 200, contentType: jsonCT},
		{name: "nil-registry-prom", srv: bare, method: "GET", path: "/metrics/prom", status: 200, contentType: promCT},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			tc.srv.Handler().ServeHTTP(rr, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rr.Code != tc.status {
				t.Fatalf("status %d, want %d (body %q)", rr.Code, tc.status, rr.Body)
			}
			if got := rr.Header().Get("Content-Type"); tc.contentType != "" && got != tc.contentType {
				t.Errorf("content type %q, want %q", got, tc.contentType)
			}
			if got := rr.Header().Get("Allow"); got != tc.allow {
				t.Errorf("Allow %q, want %q", got, tc.allow)
			}
			if !strings.Contains(rr.Body.String(), tc.contains) {
				t.Errorf("body %q lacks %q", rr.Body, tc.contains)
			}
			if tc.status >= 400 {
				var doc ErrorDoc
				if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil || doc.Error == "" {
					t.Errorf("failure body is not an ErrorDoc with a message: %q (%v)", rr.Body, err)
				}
			}
		})
	}
	if reg.Counter("test.requests").Load() == 0 {
		t.Error("request counter did not move over the table")
	}

	t.Run("lifecycle-and-client", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := full.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown before Start = %v, want nil", err)
		}
		addr, err := full.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.Start("127.0.0.1:0"); err == nil {
			t.Error("second Start succeeded")
		}
		c, err := NewClient(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		var doc echoDoc
		if code, err := c.GetJSON(ctx, "/read", &doc); err != nil || code != 200 || doc.N != 1 {
			t.Errorf("GetJSON = %d, %v, %+v", code, err, doc)
		}
		if code, err := c.PostJSON(ctx, "/echo", echoDoc{N: 5}, &doc); err != nil || code != 200 || doc.N != 5 {
			t.Errorf("PostJSON = %d, %v, %+v", code, err, doc)
		}
		var raw bytes.Buffer
		if code, err := c.GetRaw(ctx, "/metrics/prom", &raw); err != nil || code != 200 ||
			!strings.Contains(raw.String(), "whowas_scanner_probes_total 42") {
			t.Errorf("GetRaw = %d, %v, %q", code, err, raw.String())
		}
		// A refusal comes back as its status plus the server's reason.
		code, err := c.PostJSON(ctx, "/echo", echoDoc{N: -1}, &doc)
		var se *StatusError
		if code != http.StatusConflict || !errors.As(err, &se) || se.Reason != "n must not be negative" {
			t.Errorf("refused PostJSON = %d, %v; want 409 with the server's reason", code, err)
		}
		if want := "POST /echo: 409 Conflict: n must not be negative"; err == nil || err.Error() != want {
			t.Errorf("refusal error %q, want %q", err, want)
		}

		if err := full.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := full.Shutdown(ctx); err != nil {
			t.Errorf("second Shutdown = %v, want nil", err)
		}
		if code, err := c.GetJSON(ctx, "/read", &doc); err == nil || code != 0 {
			t.Errorf("GetJSON after Shutdown = %d, %v; want a transport error", code, err)
		}
	})
}

// TestDecodeBodyCap: a body over the cap is answered 413 with an
// ErrorDoc, whether its length is declared or only found by reading
// it; a body at the cap decodes.
func TestDecodeBodyCap(t *testing.T) {
	body := `{"n": 12345}` // 12 bytes
	cases := []struct {
		name     string
		limit    int64
		declared int64 // the request's Content-Length; -1 = unknown
		status   int
	}{
		{name: "at-cap", limit: 12, declared: -1, status: http.StatusOK},
		{name: "streamed-over", limit: 11, declared: -1, status: http.StatusRequestEntityTooLarge},
		{name: "declared-over", limit: 11, declared: 12, status: http.StatusRequestEntityTooLarge},
		{name: "constant-declared-over", limit: maxBody, declared: maxBody + 1, status: http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
			req.ContentLength = tc.declared
			rr := httptest.NewRecorder()
			var doc echoDoc
			ok := decodeBody(rr, req, &doc, tc.limit)
			if rr.Code != tc.status || ok != (tc.status == http.StatusOK) {
				t.Fatalf("decodeBody = %v, status %d; want %d", ok, rr.Code, tc.status)
			}
			if !ok {
				var e ErrorDoc
				if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "over") {
					t.Errorf("413 body %q is not an ErrorDoc naming the cap (%v)", rr.Body, err)
				}
			} else if doc.N != 12345 {
				t.Errorf("decoded %+v", doc)
			}
		})
	}
}
