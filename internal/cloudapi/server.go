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
	// and the channel, parked-connection and tunnel gauges) and backs
	// the control plane's /metrics and /metrics/prom.
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

	chanMu   sync.Mutex
	channels map[uint64]*serverChannel // live probe channels by the name the daemon gave them
	nextChan uint64

	mAccepts      *metrics.Counter // data-plane connections: channels and tunnels
	mDials        *metrics.Counter // DIAL frames: one per client dial
	mDialErrs     *metrics.Counter
	mPreambleErrs *metrics.Counter
	mSessionDials *metrics.Counter
	mAttaches     *metrics.Counter
	mFlushes      *metrics.Counter // writes on probe channels; dials/flushes is verdicts per write(2)
	gChannels     *metrics.Gauge
	gParked       *metrics.Gauge
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
		fleet: netsim.NewFleet(cfg.DataBasePort),
		ctrl: httpd.New(httpd.Config{
			Metrics:  cfg.Metrics,
			Health:   func(doc map[string]any) { doc["day"] = cloud.Day() },
			Requests: cfg.Metrics.Counter("cloudd.control_requests"),
		}),
		channels:      make(map[uint64]*serverChannel),
		mAccepts:      cfg.Metrics.Counter("cloudd.data_accepts"),
		mDials:        cfg.Metrics.Counter("cloudd.dials"),
		mDialErrs:     cfg.Metrics.Counter("cloudd.dial_errors"),
		mPreambleErrs: cfg.Metrics.Counter("cloudd.preamble_errors"),
		mSessionDials: cfg.Metrics.Counter("cloudd.session_dials"),
		mAttaches:     cfg.Metrics.Counter("cloudd.attaches"),
		mFlushes:      cfg.Metrics.Counter("cloudd.verdict_flushes"),
		gChannels:     cfg.Metrics.Gauge("cloudd.probe_channels"),
		gParked:       cfg.Metrics.Gauge("cloudd.parked_conns"),
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

// serveData handles one data-plane connection: a probe channel or a
// lazy tunnel, as its opening line says. The fleet closes the socket
// when this returns.
func (s *Server) serveData(c net.Conn) {
	s.mAccepts.Inc()
	_ = c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := dataReaders.Get().(*bufio.Reader)
	br.Reset(c)
	defer func() {
		br.Reset(nil)
		dataReaders.Put(br)
	}()
	line, err := readLine(br)
	if err != nil {
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	attach, channel, id, err := parseOpening(line)
	switch {
	case err != nil:
		s.mPreambleErrs.Inc()
		writeStatus(c, statusErr+" "+sanitize(err.Error()))
	case attach:
		s.serveTunnel(c, br, channel, id)
	default:
		s.serveChannel(c, br)
	}
}

// dataReaders recycles the data connections' read buffers: a tunnel's
// is used for one opening line.
var dataReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// serverChannel is the daemon's end of one probe channel: the
// simulated connections it answered OK for that are neither attached
// nor dropped yet.
type serverChannel struct {
	mu     sync.Mutex
	parked map[uint32]net.Conn // nil once the channel has ended
}

// serveChannel answers a probe channel's frames in arrival order, one
// simulated dial per DIAL, until the connection ends. Verdicts collect
// in the write buffer and go out when the read buffer runs dry, so a
// burst of pipelined dials is answered in one write.
func (s *Server) serveChannel(c net.Conn, br *bufio.Reader) {
	ch := &serverChannel{parked: make(map[uint32]net.Conn)}
	s.chanMu.Lock()
	s.nextChan++
	name := s.nextChan
	s.channels[name] = ch
	s.chanMu.Unlock()
	s.gChannels.Add(1)
	defer func() {
		s.chanMu.Lock()
		delete(s.channels, name)
		s.chanMu.Unlock()
		ch.mu.Lock()
		parked := ch.parked
		ch.parked = nil
		ch.mu.Unlock()
		for _, inner := range parked {
			_ = inner.Close()
		}
		s.gParked.Add(-int64(len(parked)))
		s.gChannels.Add(-1)
	}()

	out := make([]byte, 0, 512)
	out = append(out, statusOK+" "...)
	out = append(strconv.AppendUint(out, name, 10), '\n')
	dec := &frameDecoder{br: br}
	var f clientFrame
	var last dialCtx
	for {
		if br.Buffered() == 0 && len(out) > 0 {
			_ = c.SetWriteDeadline(time.Now().Add(handshakeTimeout))
			if _, err := c.Write(out); err != nil {
				return
			}
			s.mFlushes.Inc()
			out = out[:0]
		}
		if err := dec.next(&f); err != nil {
			return
		}
		if f.typ == frameDrop {
			if inner := ch.unpark(f.id); inner != nil {
				s.gParked.Add(-1)
				_ = inner.Close()
			}
			continue
		}
		status, reason := s.dial(ch, &f, &last)
		out = appendVerdict(out, f.id, status, reason)
	}
}

// dialCtx is what a channel's dials reuse, one frame at a time: the
// context stamped with its last probe session (a shard's dials all
// carry one session, so the next frame almost always reuses it), and
// the deadline context each budgeted dial resets.
type dialCtx struct {
	session  string
	ctx      context.Context
	deadline netsim.DeadlineContext
}

// dial makes the one simulated dial a DIAL frame stands for, with the
// frame's session re-stamped and its deadline rebuilt, and parks the
// connection when there is one.
func (s *Server) dial(ch *serverChannel, f *clientFrame, last *dialCtx) (status byte, reason string) {
	s.mDials.Inc()
	ctx := context.Background()
	if len(f.session) > 0 {
		s.mSessionDials.Inc()
		if last.ctx == nil || last.session != string(f.session) {
			last.session = string(f.session)
			last.ctx = netsim.WithProbeSession(ctx, last.session)
		}
		ctx = last.ctx
	}
	if f.budgetMS != noBudget {
		// The simulated network reads Deadline and Err and never waits,
		// so rebuilding the caller's deadline arms no timer.
		last.deadline.Reset(ctx, time.Duration(f.budgetMS)*time.Millisecond)
		defer last.deadline.Release()
		ctx = &last.deadline
	}
	inner, err := s.cloud.DialContext(ctx, "tcp", string(f.address))
	if err != nil {
		s.mDialErrs.Inc()
		return classifyDialErr(err)
	}
	if !ch.park(f.id, inner) {
		_ = inner.Close()
		s.mDialErrs.Inc()
		return verdictErr, "cloudapi: too many parked connections on this channel, or a dial id in use"
	}
	s.gParked.Add(1)
	return verdictOK, ""
}

// park holds an answered connection for its attach or drop; false when
// the channel is full or the id already names a parked connection.
func (ch *serverChannel) park(id uint32, inner net.Conn) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if _, taken := ch.parked[id]; taken || ch.parked == nil || len(ch.parked) >= maxParked {
		return false
	}
	ch.parked[id] = inner
	return true
}

// unpark hands over a parked connection, or nil when there is none.
func (ch *serverChannel) unpark(id uint32) net.Conn {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	inner := ch.parked[id]
	delete(ch.parked, id)
	return inner
}

// serveTunnel attaches a parked simulated connection to this socket:
// status out, then a bidirectional splice between the two.
func (s *Server) serveTunnel(c net.Conn, br *bufio.Reader, channel uint64, id uint32) {
	s.chanMu.Lock()
	ch := s.channels[channel]
	s.chanMu.Unlock()
	var inner net.Conn
	if ch != nil {
		inner = ch.unpark(id)
	}
	if inner == nil {
		writeStatus(c, statusErr+" no connection parked under that channel and id")
		return
	}
	defer inner.Close()
	s.gParked.Add(-1)
	s.mAttaches.Inc()
	s.gTunnels.Add(1)
	defer s.gTunnels.Add(-1)
	writeStatus(c, statusOK)

	// Splice: client->simulated runs in its own goroutine (draining
	// any bytes the client pipelined behind the opening line via br);
	// simulated->client runs inline. Closing both conns on the way
	// out unblocks whichever copy is still pending.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		splice(inner, br)
		_ = inner.Close()
	}()
	splice(c, inner)
	_ = inner.Close()
	_ = c.Close()
	wg.Wait()
}

// spliceBufs recycles the tunnels' copy buffers: io.Copy would
// allocate 32 KiB per direction per tunnel, and a tunnel lives for one
// page.
var spliceBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// splice copies src to dst until either ends. A response the
// simulated host wrote in one piece is read in one piece and crosses
// the wire as one write(2).
func splice(dst io.Writer, src io.Reader) {
	buf := spliceBufs.Get().(*[32 << 10]byte)
	defer spliceBufs.Put(buf)
	for {
		n, err := src.Read(buf[:])
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// classifyDialErr maps a simulated dial failure onto the verdict
// vocabulary so the client can resurface an equivalent error. The
// simulated network's errors (and an expired budget's
// context.DeadlineExceeded) are net.Errors as they come, which costs a
// type assertion; errors.As, which allocates, is for a wrapped one.
func classifyDialErr(err error) (status byte, reason string) {
	nerr, ok := err.(net.Error)
	if !ok {
		var wrapped net.Error
		if !errors.As(err, &wrapped) {
			return verdictErr, err.Error()
		}
		nerr = wrapped
	}
	if nerr.Timeout() {
		return verdictTimeout, ""
	}
	return verdictRefused, ""
}

func writeStatus(c net.Conn, status string) {
	_ = c.SetWriteDeadline(time.Now().Add(handshakeTimeout))
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
