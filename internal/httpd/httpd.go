// Package httpd is the one control-plane HTTP stack under the three
// daemons (the CLIs' ops endpoint, whowas-cloudd's control plane, the
// coordinator's protocol). It owns the mux and the http.Server, the
// shared observability surface every daemon answers (/healthz,
// /metrics, /metrics/prom, /debug/pprof/*), the method gate, the JSON
// answer and error shapes, and the matching client half — so a
// daemon's own package holds only its own routes. It imports nothing
// of the platform but internal/metrics, which is what lets cloudapi
// (below core) and ops/coord (above it) share it.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"time"

	"whowas/internal/metrics"
)

// Config wires a server's shared surface. Every field may be zero; the
// surface then serves empty-but-valid documents, never errors.
type Config struct {
	// Metrics backs /metrics (JSON snapshot) and, unless Prom is set,
	// /metrics/prom (Prometheus text exposition).
	Metrics *metrics.Registry
	// Prom, when non-nil, writes the /metrics/prom body instead — the
	// coordinator's fleet-wide, worker-labeled exposition.
	Prom func(w io.Writer) error
	// Health, when non-nil, adds the daemon's own fields to the
	// /healthz document (whowas-cloudd reports its simulated day).
	Health func(doc map[string]any)
	// Requests counts every request the server answers.
	Requests *metrics.Counter
}

// Server is one daemon's HTTP endpoint: the shared surface plus the
// routes its owner mounts with Handle.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time
	srv   *http.Server
	done  chan struct{} // closed when the serve loop has returned
}

// New builds a server with the shared surface mounted; add the
// daemon's routes with Handle, then Start it (or mount Handler on an
// httptest server).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.Handle("/healthz", s.handleHealthz, http.MethodGet)
	s.Handle("/metrics", s.handleMetrics, http.MethodGet)
	s.Handle("/metrics/prom", s.handleMetricsProm, http.MethodGet)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handle mounts h on pattern for the given methods (GET admits HEAD);
// any other method is answered with a JSON 405 naming the allowed
// ones. The mux panics on a duplicate pattern, as http.ServeMux does.
func (s *Server) Handle(pattern string, h http.HandlerFunc, methods ...string) {
	if slices.Contains(methods, http.MethodGet) {
		methods = append(slices.Clone(methods), http.MethodHead)
	}
	allow := strings.Join(methods, ", ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			w.Header().Set("Allow", allow)
			WriteError(w, http.StatusMethodNotAllowed, "httpd: "+r.Method+" not allowed; use "+allow)
			return
		}
		h(w, r)
	})
}

// Handler returns the routing handler with the request counter
// applied.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cfg.Requests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

// Start binds addr (e.g. "127.0.0.1:8377", or ":0" for an ephemeral
// port) and serves in a background goroutine, returning the bound
// address. Stop it with Shutdown.
func (s *Server) Start(addr string) (string, error) {
	if s.srv != nil {
		return "", fmt.Errorf("httpd: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	s.srv = &http.Server{Handler: s.Handler()}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed: Shutdown is the only exit
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops the server, waiting for in-flight requests up to the
// context's deadline and for the serve loop to exit. Idempotent; a
// server never started shuts down trivially.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.start).Nanoseconds(),
	}
	if s.cfg.Health != nil {
		s.cfg.Health(doc)
	}
	WriteJSON(w, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, s.cfg.Metrics.Snapshot())
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.cfg.Prom != nil {
		_ = s.cfg.Prom(w)
		return
	}
	_ = s.cfg.Metrics.Snapshot().WriteProm(w, "whowas")
}

// WriteJSON writes v as indented JSON with the conventional content
// type — the house answer format.
func WriteJSON(w http.ResponseWriter, v any) {
	writeJSON(w, http.StatusOK, v)
}

// ErrorDoc is the house error shape: every handler failure is a JSON
// document, never bare text, so scripted clients can always decode the
// body.
type ErrorDoc struct {
	Error string `json:"error"`
}

// WriteError writes an ErrorDoc with the given status.
func WriteError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorDoc{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the peer hanging up mid-answer is its own report
}

// maxBody caps a request body. The largest the control planes take is
// a coord submission: one region shard of one round's records.
const maxBody = 1 << 30

// DecodeBody decodes the request's JSON body into v, answering an
// ErrorDoc and returning false when it is malformed (400) or over
// maxBody (413).
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeBody(w, r, v, maxBody)
}

// decodeBody is DecodeBody under limit; a declared length over it is
// refused unread.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	err := error(&http.MaxBytesError{Limit: limit})
	if r.ContentLength <= limit {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	}
	if over := (*http.MaxBytesError)(nil); errors.As(err, &over) {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("httpd: request body over %d bytes", over.Limit))
	} else if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("httpd: bad request body: %v", err))
	}
	return err == nil
}
