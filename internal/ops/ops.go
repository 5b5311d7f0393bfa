// Package ops is the platform's live operations endpoint: a small
// HTTP server an operator points a browser or curl at while a
// campaign runs. On top of the surface every daemon shares
// (internal/httpd: liveness, the metrics registry as JSON and
// Prometheus text, pprof) it serves the completed rounds' reports and
// the tracer's active and slowest spans. Everything is read-only and
// safe to serve concurrently with a running campaign.
//
// The server is opt-in: the CLIs only start it when -ops-addr is set,
// and a zero Config serves degraded-but-valid answers (empty metrics,
// no rounds, no spans).
package ops

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"whowas/internal/core"
	"whowas/internal/httpd"
	"whowas/internal/metrics"
	"whowas/internal/trace"
)

// Config wires the server to the campaign's observability state. Any
// field may be nil; the corresponding endpoints then serve empty
// documents rather than errors.
type Config struct {
	// Metrics backs the shared /metrics and /metrics/prom.
	Metrics *metrics.Registry
	// Tracer backs /trace/active and /trace/slowest.
	Tracer *trace.Tracer
	// Rounds supplies the completed rounds for /rounds
	// (Platform.RoundReports fits directly).
	Rounds func() []core.RoundReport
}

// New builds the live ops endpoint: the shared httpd surface plus this
// package's routes. Call Start to bind it, or use Handler directly
// (tests mount it on httptest servers).
func New(cfg Config) *httpd.Server {
	s := httpd.New(httpd.Config{Metrics: cfg.Metrics})
	Mount(s, cfg.Tracer, cfg.Rounds)
	return s
}

// Serve is the CLIs' -ops-addr flag: it binds the endpoint to addr,
// announces where it listens on w and returns the function that stops
// it.
func Serve(w io.Writer, addr string, cfg Config) (stop func(), err error) {
	srv := New(cfg)
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "ops endpoint listening on http://%s\n", bound)
	return func() { Stop(srv) }, nil
}

// Stop shuts a CLI's server down when its campaign ends, giving
// requests in flight two seconds to finish.
func Stop(srv interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// maxSlowest bounds /trace/slowest?n=: the ring holds a few thousand
// spans at most, so anything beyond this is a typo, not a query.
const maxSlowest = 10000

// Mount adds /rounds, /trace/active and /trace/slowest to a server the
// caller built — the coordinator serves them beside its protocol, so
// one address answers both workers and operators. Either argument may
// be nil.
func Mount(s *httpd.Server, tracer *trace.Tracer, rounds func() []core.RoundReport) {
	s.Handle("/rounds", func(w http.ResponseWriter, _ *http.Request) {
		rr := []core.RoundReport{}
		if rounds != nil {
			if got := rounds(); got != nil {
				rr = got
			}
		}
		httpd.WriteJSON(w, rr)
	}, http.MethodGet)
	s.Handle("/trace/active", func(w http.ResponseWriter, _ *http.Request) {
		writeSpans(w, tracer.Active())
	}, http.MethodGet)
	s.Handle("/trace/slowest", func(w http.ResponseWriter, r *http.Request) {
		n := 10
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 || v > maxSlowest {
				httpd.WriteError(w, http.StatusBadRequest,
					fmt.Sprintf("ops: n must be an integer in [1, %d], got %q", maxSlowest, q))
				return
			}
			n = v
		}
		writeSpans(w, tracer.Slowest(n))
	}, http.MethodGet)
}

// writeSpans answers a span list, an empty one as [] rather than null.
func writeSpans(w http.ResponseWriter, spans []trace.SpanSnapshot) {
	if spans == nil {
		spans = []trace.SpanSnapshot{}
	}
	httpd.WriteJSON(w, spans)
}
