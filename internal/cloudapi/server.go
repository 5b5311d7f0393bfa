package cloudapi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"whowas/internal/httpd"
	"whowas/internal/metrics"
	"whowas/internal/netsim"
)

// ServerConfig sizes the daemon's two listening surfaces.
type ServerConfig struct {
	// DataListeners is the size of the data-plane listener fleet
	// (default 2). Clients spread dials across the fleet.
	DataListeners int
	// DataBasePort, when positive, binds data listeners on
	// deterministic consecutive ports; zero uses ephemeral ports.
	DataBasePort int
	// Metrics, when non-nil, instruments the daemon (cloudd.* counters
	// and the active-tunnel gauge) and backs the control plane's
	// /metrics and /metrics/prom.
	Metrics *metrics.Registry
}

// Server is the daemon side of the wire cloud: it owns an InProcess
// cloud and serves its data plane over a TCP listener fleet and its
// control plane as JSON over HTTP (internal/httpd's shared surface
// plus the /cloud, /truth and /dns routes).
type Server struct {
	cloud *InProcess
	cfg   ServerConfig
	fleet *netsim.Fleet
	ctrl  *httpd.Server

	mDials        *metrics.Counter
	mDialErrs     *metrics.Counter
	mPreambleErrs *metrics.Counter
	mSessionDials *metrics.Counter
	gTunnels      *metrics.Gauge
}

// NewServer wraps an in-process cloud for wire serving; call Start to
// bind it.
func NewServer(cloud *InProcess, cfg ServerConfig) *Server {
	if cfg.DataListeners <= 0 {
		cfg.DataListeners = 2
	}
	s := &Server{
		cloud: cloud,
		cfg:   cfg,
		fleet: netsim.NewFleet(netsim.FleetConfig{Max: cfg.DataListeners, BasePort: cfg.DataBasePort}),
		ctrl: httpd.New(httpd.Config{
			Metrics:  cfg.Metrics,
			Health:   func(doc map[string]any) { doc["day"] = cloud.Day() },
			Requests: cfg.Metrics.Counter("cloudd.control_requests"),
		}),
		mDials:        cfg.Metrics.Counter("cloudd.dials"),
		mDialErrs:     cfg.Metrics.Counter("cloudd.dial_errors"),
		mPreambleErrs: cfg.Metrics.Counter("cloudd.preamble_errors"),
		mSessionDials: cfg.Metrics.Counter("cloudd.session_dials"),
		gTunnels:      cfg.Metrics.Gauge("cloudd.active_tunnels"),
	}
	s.ctrl.Handle("/cloud/info", s.handleInfo, http.MethodGet)
	s.ctrl.Handle("/cloud/day", s.handleDay, http.MethodGet, http.MethodPost)
	s.ctrl.Handle("/truth/snapshot", s.handleSnapshot, http.MethodGet)
	s.ctrl.Handle("/dns/public", s.handleDNS, http.MethodGet)
	return s
}

// Handler returns the control-plane routing handler (tests mount it
// on httptest servers).
func (s *Server) Handler() http.Handler { return s.ctrl.Handler() }

// Start binds the data-plane fleet and the control listener, serving
// both in background goroutines, and returns the bound control
// address. Shut down with Shutdown.
func (s *Server) Start(ctrlAddr string) (string, error) {
	for i := 0; i < s.cfg.DataListeners; i++ {
		if _, err := s.fleet.Listen(s.serveData); err != nil {
			_ = s.fleet.Close()
			return "", err
		}
	}
	bound, err := s.ctrl.Start(ctrlAddr)
	if err != nil {
		_ = s.fleet.Close()
		return "", fmt.Errorf("cloudapi: control plane: %w", err)
	}
	return bound, nil
}

// DataAddrs returns the data-plane listener addresses.
func (s *Server) DataAddrs() []string { return s.fleet.Addrs() }

// Shutdown stops the control server and drains the data-plane fleet
// (closing live tunnels). Safe to call repeatedly.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.ctrl.Shutdown(ctx)
	if cerr := s.fleet.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveData handles one tunneled dial: preamble in, status out, then
// a bidirectional splice between the real socket and the simulated
// connection. The fleet closes the socket when this returns.
func (s *Server) serveData(c net.Conn) {
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	address, budget, hasBudget, session, err := parsePreamble(line)
	if err != nil {
		s.mPreambleErrs.Inc()
		writeStatus(c, statusErr+" "+sanitize(err.Error()))
		return
	}
	s.mDials.Inc()
	ctx := context.Background()
	if session != "" {
		s.mSessionDials.Inc()
		ctx = netsim.WithProbeSession(ctx, session)
	}
	cancel := func() {}
	if hasBudget {
		ctx, cancel = context.WithTimeout(ctx, budget)
	}
	inner, err := s.cloud.DialContext(ctx, "tcp", address)
	cancel()
	if err != nil {
		s.mDialErrs.Inc()
		writeStatus(c, classifyDialErr(err))
		return
	}
	defer inner.Close()
	s.gTunnels.Add(1)
	defer s.gTunnels.Add(-1)
	writeStatus(c, statusOK)

	// Splice: client->simulated runs in its own goroutine (draining
	// any bytes the client pipelined behind the preamble via br);
	// simulated->client runs inline. Closing both conns on the way
	// out unblocks whichever copy is still pending.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = io.Copy(inner, br)
		_ = inner.Close()
	}()
	_, _ = io.Copy(c, inner)
	_ = inner.Close()
	_ = c.Close()
	wg.Wait()
}

// classifyDialErr maps a simulated dial failure onto the wire status
// vocabulary so the client can resurface an equivalent error.
func classifyDialErr(err error) string {
	var nerr net.Error
	if errors.As(err, &nerr) {
		if nerr.Timeout() {
			return statusTimeout
		}
		return statusRefused
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return statusTimeout
	}
	return statusErr + " " + sanitize(err.Error())
}

func writeStatus(c net.Conn, status string) {
	_ = c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, _ = io.WriteString(c, status+"\n")
	_ = c.SetWriteDeadline(time.Time{})
}

// sanitize keeps wire error reasons single-line.
func sanitize(msg string) string {
	return strings.ReplaceAll(strings.ReplaceAll(msg, "\n", " "), "\r", " ")
}

// --- control plane ---

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info := s.cloud.Info()
	info.DataAddrs = s.DataAddrs()
	httpd.WriteJSON(w, info)
}

// dayDoc is the /cloud/day document, shared by GET and POST.
type dayDoc struct {
	Day int `json:"day"`
}

func (s *Server) handleDay(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		var doc dayDoc
		if !httpd.DecodeBody(w, r, &doc) {
			return
		}
		if err := s.cloud.SetDay(r.Context(), doc.Day); err != nil {
			httpd.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	httpd.WriteJSON(w, dayDoc{Day: s.cloud.Day()})
}

// queryDay reads the optional ?day= parameter (default: the current
// day), answering a 400 when it is not an integer.
func (s *Server) queryDay(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("day")
	if q == "" {
		return s.cloud.Day(), true
	}
	day, err := strconv.Atoi(q)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, "cloudapi: day must be an integer")
		return 0, false
	}
	return day, true
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	day, ok := s.queryDay(w, r)
	if !ok {
		return
	}
	snap, err := s.cloud.Snapshot(r.Context(), day)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	httpd.WriteJSON(w, snap)
}

func (s *Server) handleDNS(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		httpd.WriteError(w, http.StatusBadRequest, "cloudapi: name parameter required")
		return
	}
	day, ok := s.queryDay(w, r)
	if !ok {
		return
	}
	resp, err := s.cloud.Resolver(day).LookupPublicName(r.Context(), name)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	httpd.WriteJSON(w, resp)
}
