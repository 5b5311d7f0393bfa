package ops

// Handler-contract tests for this package's routes: content type, the
// read-only method gate, parameter bounds, and the JSON error shape
// scripted clients rely on. The shared surface's contract is tested
// in internal/httpd.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"whowas/internal/httpd"
)

// do issues an arbitrary-method request against the handler.
func do(t *testing.T, h http.Handler, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestContentTypes(t *testing.T) {
	s, _, _ := testServer(t)
	for path, want := range map[string]string{
		"/rounds":        "application/json",
		"/trace/active":  "application/json",
		"/trace/slowest": "application/json",
	} {
		rr := do(t, s.Handler(), "GET", path)
		if rr.Code != 200 {
			t.Errorf("%s status %d", path, rr.Code)
		}
		if got := rr.Header().Get("Content-Type"); got != want {
			t.Errorf("%s content type %q, want %q", path, got, want)
		}
	}
}

func TestMethodValidation(t *testing.T) {
	s, _, _ := testServer(t)
	for _, path := range []string{"/rounds", "/trace/active", "/trace/slowest"} {
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			rr := do(t, s.Handler(), method, path)
			if rr.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s status %d, want 405", method, path, rr.Code)
				continue
			}
			if allow := rr.Header().Get("Allow"); !strings.Contains(allow, "GET") {
				t.Errorf("%s %s Allow header %q", method, path, allow)
			}
			assertErrorDoc(t, rr)
		}
		// HEAD rides the GET path.
		if rr := do(t, s.Handler(), "HEAD", path); rr.Code != 200 {
			t.Errorf("HEAD %s status %d, want 200", path, rr.Code)
		}
	}
}

func TestTraceSlowestBounds(t *testing.T) {
	s, _, tr := testServer(t)
	tr.Start("scan", nil).End()

	for _, q := range []string{"n=0", "n=-3", "n=bogus", "n=10001", "n=9999999999999999999"} {
		rr := do(t, s.Handler(), "GET", "/trace/slowest?"+q)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("?%s status %d, want 400", q, rr.Code)
			continue
		}
		assertErrorDoc(t, rr)
	}
	// The bounds are inclusive.
	for _, q := range []string{"n=1", "n=10000", ""} {
		rr := do(t, s.Handler(), "GET", "/trace/slowest?"+q)
		if rr.Code != 200 {
			t.Errorf("?%s status %d, want 200", q, rr.Code)
		}
	}
}

// assertErrorDoc checks a failure response carries the JSON error
// shape with a non-empty message.
func assertErrorDoc(t *testing.T, rr *httptest.ResponseRecorder) {
	t.Helper()
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type %q, want application/json", ct)
	}
	body, _ := io.ReadAll(rr.Result().Body)
	var doc httpd.ErrorDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Errorf("error body not an ErrorDoc: %q (%v)", body, err)
		return
	}
	if doc.Error == "" {
		t.Errorf("error doc has empty message: %q", body)
	}
}
