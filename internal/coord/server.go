package coord

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/core"
	"whowas/internal/faults"
	"whowas/internal/httpd"
	"whowas/internal/metrics"
	"whowas/internal/ops"
	"whowas/internal/ratelimit"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
	"whowas/internal/trace"
)

// Config drives one distributed campaign.
type Config struct {
	// CloudAddr is the control-plane address of the shared
	// whowas-cloudd daemon. The coordinator dials it to own the day
	// schedule; workers dial it to probe.
	CloudAddr string
	// Rounds are the campaign day offsets; nil means the paper's §6
	// schedule over the cloud's campaign length.
	Rounds []int
	// MaxRounds caps the schedule (after Rounds defaulting); 0 means
	// no cap. Mirrors the CLIs' -rounds flag.
	MaxRounds int
	// Shards sets how many region shards each round is split into
	// (core.ShardLayout, the in-process round's lane layout). 0 means
	// one shard per region. The store digest is byte-identical for any
	// value.
	Shards int
	// MaxWorkers bounds the fleet: the global probe budget is divided
	// into MaxWorkers equal lease slices, and a register is refused
	// (409) while MaxWorkers other workers hold leases.
	// 0 means DefaultMaxWorkers.
	MaxWorkers int
	// Rate is the global §7 probe budget in probes per second, shared
	// by the whole fleet. <= 0 means simulation speed (workers scan
	// unthrottled, as core.FastCampaign does, and every slice is 0);
	// the leases still run for liveness.
	Rate float64
	// LeaseTTL is how long a worker lease lives without renewal; a
	// silent worker expires after it and its shards are re-queued.
	// 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// RoundTimeout bounds each round's wall-clock time. A round whose
	// shards have not all been submitted by then finalizes degraded
	// with the shards that did complete — mirroring the in-process
	// round's graceful degradation — instead of hanging on a dead
	// fleet. It is also forwarded to workers as their per-shard
	// deadline. 0 means no deadline.
	RoundTimeout time.Duration
	// Attempts and Faults mirror CampaignConfig and are forwarded to
	// every worker so the fleet's records match a single-process run
	// byte for byte.
	Attempts int
	Faults   *faults.Scenario
	// StoreDir, when non-empty, backs the coordinator's store with the
	// on-disk columnar engine (internal/store/colstore) in that
	// directory instead of holding every round in memory. Digests are
	// byte-identical either way.
	StoreDir string
	// Metrics receives the coord.* counters and backs the ops surface.
	Metrics *metrics.Registry
	// Tracer, when non-nil, is the fleet's merged flight recorder: the
	// coordinator opens one "round" span per round, renumbers every
	// accepted submission's worker spans under it (stamped with worker
	// identity), and journals the lot — so whowas-query trace
	// reconstructs the distributed campaign from this one journal.
	Tracer *trace.Tracer
	// Observer, when non-nil, receives each completed round's report.
	Observer func(core.RoundReport)
	// Clock times the leases (tests install a fake). Nil means the
	// real clock.
	Clock ratelimit.Clock
}

// Defaults for the zero Config values.
const (
	DefaultMaxWorkers = 8
	DefaultLeaseTTL   = 10 * time.Second
	// defaultRetryMS is the poll interval handed to waiting workers.
	defaultRetryMS = 50
)

// Server is the campaign coordinator. Build with NewServer, bind the
// protocol with Start, drive the rounds with Run, and stop with
// Shutdown.
type Server struct {
	// p holds the cloud client, the store the shards merge into and the
	// round reports; its RunRound is the frame around every round.
	p      *core.Platform
	ctrl   *httpd.Server
	addr   string
	notify chan struct{}

	mu sync.Mutex
	// ledger is the campaign's state. Only apply changes it, under mu.
	ledger

	closeOnce sync.Once
	closeErr  error

	mRounds, mAssigned, mCompleted, mReassigned, mExpired, mRegistered, mRejected *metrics.Counter

	// testOnHeartbeat, when set, runs at the top of every heartbeat
	// request — the worker tests hold one in flight through it.
	testOnHeartbeat func()
}

// NewServer dials the shared cloud daemon and assembles the
// coordinator: the store the shards merge into, the shard layout, and
// the round schedule.
func NewServer(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.CloudAddr == "" {
		return nil, fmt.Errorf("coord: CloudAddr required")
	}
	if cfg.LeaseTTL > 0 && cfg.LeaseTTL < time.Millisecond { // workers learn it in whole ms
		return nil, fmt.Errorf("coord: lease TTL %v below the protocol's 1ms resolution", cfg.LeaseTTL)
	}
	cfg.Rate = max(cfg.Rate, 0)
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = DefaultMaxWorkers
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	cloud, err := cloudapi.Dial(ctx, cfg.CloudAddr)
	if err != nil {
		return nil, fmt.Errorf("coord: dialing cloud: %w", err)
	}
	regions, err := core.CloudRegionNames(cloud)
	if err != nil {
		cloud.Close()
		return nil, err
	}
	days := cfg.Rounds
	if days == nil {
		days = core.DefaultRoundSchedule(cloud.Days())
	}
	if cfg.MaxRounds > 0 && cfg.MaxRounds < len(days) {
		days = days[:cfg.MaxRounds]
	}
	for _, day := range days {
		if day < 0 || day >= cloud.Days() {
			cloud.Close()
			return nil, fmt.Errorf("coord: round day %d outside campaign [0,%d)", day, cloud.Days())
		}
	}
	p, err := core.NewPlatformCloud(cloud)
	if err == nil {
		// Store finalize spans join the merged journal too.
		p.Metrics, p.Tracer = cfg.Metrics, cfg.Tracer
		backend := store.NewMemoryBackend()
		if cfg.StoreDir != "" {
			backend, err = colstore.Open(cfg.StoreDir, colstore.Options{CloudName: cloud.Info().Name})
		}
		if err == nil {
			err = p.UseStoreBackend(backend)
		}
	}
	if err != nil {
		cloud.Close()
		return nil, fmt.Errorf("coord: opening store: %w", err)
	}
	s := &Server{
		p:      p,
		notify: make(chan struct{}, 1),
		ledger: ledger{
			cfg:       cfg,
			cloudName: cloud.Info().Name,
			days:      days,
			shards:    core.ShardLayout(regions, cfg.Shards),
			slice:     cfg.Rate / float64(cfg.MaxWorkers),
			workers:   make(map[string]*workerState),
		},
		mRounds:     cfg.Metrics.Counter("coord.rounds"),
		mAssigned:   cfg.Metrics.Counter("coord.shards_assigned"),
		mCompleted:  cfg.Metrics.Counter("coord.shards_completed"),
		mReassigned: cfg.Metrics.Counter("coord.shards_reassigned"),
		mExpired:    cfg.Metrics.Counter("coord.leases_expired"),
		mRegistered: cfg.Metrics.Counter("coord.workers_registered"),
		mRejected:   cfg.Metrics.Counter("coord.submits_rejected"),
	}
	// One address answers workers and operators: the protocol routes
	// beside the ops routes and the shared surface, whose /metrics/prom
	// carries the fleet-wide exposition — the coordinator's own
	// instruments unlabeled, then every worker's last-reported snapshot
	// under a worker label.
	s.ctrl = httpd.New(httpd.Config{Metrics: cfg.Metrics, Prom: s.writeProm})
	ops.Mount(s.ctrl, cfg.Tracer, s.Reports)
	s.ctrl.Handle("/coord/register", s.handleRegister, http.MethodPost)
	s.ctrl.Handle("/coord/heartbeat", s.handleHeartbeat, http.MethodPost)
	s.ctrl.Handle("/coord/next", s.handleNext, http.MethodPost)
	s.ctrl.Handle("/coord/submit", s.handleSubmit, http.MethodPost)
	s.ctrl.Handle("/coord/fleet", s.handleFleet, http.MethodGet)
	return s, nil
}

// Store returns the coordinator's store (the campaign's single source
// of truth; digest it after Run).
func (s *Server) Store() *store.Store { return s.p.Store }

// NumShards reports the per-round shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// ScheduledRounds reports how many rounds the campaign will run.
func (s *Server) ScheduledRounds() int { return len(s.days) }

// Reports returns a copy of the completed rounds' reports.
func (s *Server) Reports() []core.RoundReport { return s.p.RoundReports() }

// Start binds the coordinator's address and serves in the background,
// returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	bound, err := s.ctrl.Start(addr)
	if err == nil {
		s.addr = bound
	}
	return bound, err
}

// Addr reports the bound protocol address ("" before Start).
func (s *Server) Addr() string { return s.addr }

// now reads the coordinator's clock — the configured test clock when
// present. Every lease is granted, renewed and expired on it.
func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock.Now()
	}
	return time.Now()
}

// writeProm renders the fleet-wide Prometheus exposition.
func (s *Server) writeProm(w io.Writer) error {
	series := []metrics.LabeledSnapshot{{Snap: s.cfg.Metrics.Snapshot()}}
	s.mu.Lock()
	for _, id := range s.sortedWorkers() {
		series = append(series, metrics.LabeledSnapshot{
			Labels: []metrics.Label{{Key: "worker", Value: id}},
			Snap:   s.workers[id].metrics,
		})
	}
	s.mu.Unlock()
	return metrics.WritePromSeries(w, "whowas", series)
}

// apply changes the ledger by one event on the coordinator's clock and
// acts on the effects: it counts the reaped leases and re-queued
// shards and wakes the waiters. An acceptable submission is merged
// into the store first, under the same lock; a shard the store
// refuses stays with its worker, the event unapplied.
func (s *Server) apply(ev event) effects {
	s.mu.Lock()
	now := s.now()
	var fx effects
	if ev.kind == evSubmit && s.accepts(ev, now) {
		fx.mergeErr = s.p.Store.PutBatch(ev.result.Records)
		ev.base = s.cfg.Tracer.ReserveIDs(len(ev.spans))
	}
	if fx.mergeErr == nil {
		fx = s.ledger.apply(ev, now)
	}
	s.mu.Unlock()
	s.mExpired.Add(fx.expired)
	s.mReassigned.Add(fx.requeued)
	if fx.wake {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	return fx
}

// await re-checks done on every wake and every tick until it holds or
// ctx ends, reporting whether the deadline (0: none) cut the wait short.
func (s *Server) await(ctx context.Context, tick, deadline time.Duration, done func() bool) (bool, error) {
	t := time.NewTicker(tick)
	defer t.Stop()
	var expired <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expired = timer.C
	}
	for !done() {
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-expired:
			return true, nil
		case <-s.notify:
		case <-t.C:
		}
	}
	return false, nil
}

// Run drives the campaign: one round per scheduled day through the
// in-process round's frame, each collected by waiting until every
// shard has been submitted (re-assigning as leases die). After the
// last round, workers asking for work are told to exit.
func (s *Server) Run(ctx context.Context) error {
	for i, day := range s.days {
		if err := ctx.Err(); err != nil {
			return err
		}
		collect := func(ctx context.Context) ([]*core.ShardResult, bool, error) {
			s.apply(event{kind: evRoundBegin, round: i, day: day, root: trace.FromContext(ctx).ID()})
			// Reap on a quarter-TTL cadence so a dead worker's shards are
			// back in the queue well before the survivors go idle.
			timedOut, err := s.await(ctx, s.cfg.LeaseTTL/4, s.cfg.RoundTimeout,
				func() bool { return s.apply(event{kind: evReap}).complete })
			return s.apply(event{kind: evRoundClose}).results, timedOut, err
		}
		end := func(report core.RoundReport) {
			s.apply(event{kind: evRoundEnd, degraded: report.Degraded})
			s.mRounds.Inc()
			if s.cfg.Observer != nil {
				s.cfg.Observer(report)
			}
		}
		if err := s.p.RunRound(ctx, s.shards, i, day, end, collect); err != nil {
			return err
		}
	}
	s.apply(event{kind: evCampaignDone})
	return nil
}

// DrainWorkers blocks until every worker has been told the campaign
// is done and released its lease (or ctx expires). Call after Run so
// a clean shutdown leaves no orphaned workers polling.
func (s *Server) DrainWorkers(ctx context.Context) error {
	_, err := s.await(ctx, 50*time.Millisecond, 0,
		func() bool { return s.apply(event{kind: evReap}).held == 0 })
	return err
}

// Shutdown stops the protocol server, closes the cloud client and
// releases the store backend. Idempotent; safe on a server never
// started. Call it once Run has returned: Run drops a round it does
// not finish, and a store with a round still open refuses to close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closeErr = s.ctrl.Shutdown(ctx)
		if err := s.p.Cloud.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if err := s.p.Store.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// --- protocol handlers ---

func (s *Server) handleRegister(w http.ResponseWriter, req *http.Request) {
	var rr RegisterRequest
	if !httpd.DecodeBody(w, req, &rr) {
		return
	}
	if rr.Worker == "" {
		httpd.WriteError(w, http.StatusBadRequest, "coord: worker ID required")
		return
	}
	if !s.apply(event{kind: evRegister, worker: rr.Worker}).ok {
		httpd.WriteError(w, http.StatusConflict,
			fmt.Sprintf("coord: fleet full: all %d worker leases held", s.cfg.MaxWorkers))
		return
	}
	s.mRegistered.Inc()
	httpd.WriteJSON(w, RegisterReply{
		Rate:           s.slice,
		TTLMS:          s.cfg.LeaseTTL.Milliseconds(),
		CloudAddr:      s.cfg.CloudAddr,
		Attempts:       s.cfg.Attempts,
		RoundTimeoutMS: s.cfg.RoundTimeout.Milliseconds(),
		Faults:         s.cfg.Faults,
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	if s.testOnHeartbeat != nil {
		s.testOnHeartbeat()
	}
	var hb HeartbeatRequest
	if !httpd.DecodeBody(w, req, &hb) {
		return
	}
	if !s.apply(event{kind: evHeartbeat, worker: hb.Worker, metrics: hb.Metrics}).ok {
		writeNoLease(w, hb.Worker)
		return
	}
	httpd.WriteJSON(w, HeartbeatReply{ExpiresInMS: s.cfg.LeaseTTL.Milliseconds()})
}

func (s *Server) handleNext(w http.ResponseWriter, req *http.Request) {
	var nr NextRequest
	if !httpd.DecodeBody(w, req, &nr) {
		return
	}
	fx := s.apply(event{kind: evNext, worker: nr.Worker})
	if !fx.ok {
		writeNoLease(w, nr.Worker)
		return
	}
	if fx.assign.State == StateRun {
		s.mAssigned.Inc()
	}
	httpd.WriteJSON(w, fx.assign)
}

// writeNoLease answers a request from a worker without a live lease:
// 410 tells it to register again.
func writeNoLease(w http.ResponseWriter, worker string) {
	httpd.WriteError(w, http.StatusGone, fmt.Sprintf("coord: worker %q holds no live lease", worker))
}

// handleSubmit merges an accepted shard into the store and its spans
// into the coordinator's journal: renumbered into this tracer's ID
// space, parented under the round span, stamped with the worker
// identity. A stale submission's spans are discarded with its records.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var sr SubmitRequest
	if !httpd.DecodeBody(w, req, &sr) {
		return
	}
	for _, rec := range sr.Result.Records {
		if rec == nil {
			httpd.WriteError(w, http.StatusBadRequest, "coord: submission holds a null record")
			return
		}
	}
	fx := s.apply(event{kind: evSubmit, worker: sr.Worker, round: sr.Round, shard: sr.Shard,
		result: &sr.Result, metrics: sr.Metrics, spans: sr.Spans})
	if fx.mergeErr != nil {
		httpd.WriteError(w, http.StatusInternalServerError, fx.mergeErr.Error())
		return
	}
	if fx.ok {
		s.cfg.Tracer.Record(fx.spans...)
		s.mCompleted.Inc()
	} else {
		s.mRejected.Inc()
	}
	httpd.WriteJSON(w, SubmitReply{Accepted: fx.ok})
}

// fleetView assembles the fleet document: the live status plus
// per-worker throughput, lease states, merged fleet metrics, and the
// status-history tail.
func (s *Server) fleetView() Fleet {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	return s.view(now, s.status("", "", s.round, now), s.slice)
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	httpd.WriteJSON(w, s.fleetView())
}
