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
	"whowas/internal/scanner"
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
	// into MaxWorkers equal lease slices, and the MaxWorkers+1'th
	// register attempt is refused (409) until a lease frees up.
	// 0 means DefaultMaxWorkers.
	MaxWorkers int
	// Rate is the global §7 probe budget in probes per second, shared
	// by the whole fleet. <= 0 means simulation speed (workers scan
	// unthrottled, as core.FastCampaign does); the lease machinery
	// still runs for liveness.
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
	// Attempts, KeepBodies and Faults mirror CampaignConfig and are
	// forwarded to every worker so the fleet's records match a
	// single-process run byte for byte.
	Attempts   int
	KeepBodies bool
	Faults     *faults.Scenario
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
	// Clock feeds the lease budget (tests install a fake). Nil means
	// the real clock.
	Clock ratelimit.Clock
}

// Defaults for the zero Config values.
const (
	DefaultMaxWorkers = 8
	DefaultLeaseTTL   = 10 * time.Second
	// defaultRetryMS is the poll interval handed to waiting workers.
	defaultRetryMS = 50
)

// roundState is one in-flight round's assignment ledger.
type roundState struct {
	idx, day int
	start    time.Time
	pending  []int    // unassigned shard indexes, FIFO
	owner    []string // assigned shard -> worker ID ("" = unassigned)
	done     []bool
	results  []*core.ShardResult
	nDone    int
	degraded bool
	// span is the coordinator's root span for the round; accepted
	// submissions parent their worker spans under it.
	span *trace.Span
}

// Server is the campaign coordinator. Build with NewServer, bind the
// protocol with Start, drive the rounds with Run, and stop with
// Shutdown.
type Server struct {
	cfg       Config
	cloud     *cloudapi.Client
	st        *store.Store
	budget    *ratelimit.Budget
	ctrl      *httpd.Server
	addr      string
	slice     float64 // per-worker lease slice
	unlimited bool
	days      []int
	shards    [][]string // region names per shard, fixed per campaign
	notify    chan struct{}

	mu           sync.Mutex
	round        *roundState
	roundsDone   int
	campaignDone bool
	reports      []core.RoundReport
	obs          fleetState

	closeOnce sync.Once
	closeErr  error

	mRounds     *metrics.Counter
	mAssigned   *metrics.Counter
	mCompleted  *metrics.Counter
	mReassigned *metrics.Counter
	mExpired    *metrics.Counter
	mRegistered *metrics.Counter
	mRejected   *metrics.Counter

	// testOnHeartbeat, when set, runs at the top of every heartbeat
	// request — the worker tests hold one in flight through it.
	testOnHeartbeat func()
}

// NewServer dials the shared cloud daemon and assembles the
// coordinator: the store the shards merge into, the leased-quota
// budget, the shard layout, and the round schedule.
func NewServer(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.CloudAddr == "" {
		return nil, fmt.Errorf("coord: CloudAddr required")
	}
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
	rate, unlimited := cfg.Rate, false
	if rate <= 0 {
		rate, unlimited = scanner.UnlimitedRate, true
	}
	budget, err := ratelimit.NewBudget(rate, cfg.LeaseTTL, cfg.Clock)
	if err != nil {
		cloud.Close()
		return nil, err
	}
	st := store.New(cloud.Info().Name)
	if cfg.StoreDir != "" {
		backend, err := colstore.Open(cfg.StoreDir, colstore.Options{CloudName: cloud.Info().Name})
		if err != nil {
			cloud.Close()
			return nil, fmt.Errorf("coord: opening store dir: %w", err)
		}
		st = store.NewWithBackend(cloud.Info().Name, backend)
	}
	st.KeepBodies = cfg.KeepBodies
	st.SetMetrics(cfg.Metrics)
	if cfg.Tracer != nil {
		// Store finalize spans join the merged journal too.
		st.SetTracer(cfg.Tracer)
	}
	s := &Server{
		cfg:         cfg,
		cloud:       cloud,
		st:          st,
		budget:      budget,
		slice:       rate / float64(cfg.MaxWorkers),
		unlimited:   unlimited,
		days:        days,
		shards:      core.ShardLayout(regions, cfg.Shards),
		notify:      make(chan struct{}, 1),
		obs:         fleetState{workers: make(map[string]*workerState)},
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
	s.ctrl.Handle("/coord/status", s.handleStatus, http.MethodGet)
	s.ctrl.Handle("/coord/fleet", s.handleFleet, http.MethodGet)
	return s, nil
}

// Store returns the coordinator's store (the campaign's single source
// of truth; digest it after Run).
func (s *Server) Store() *store.Store { return s.st }

// Budget exposes the lease budget (tests assert on Leased()).
func (s *Server) Budget() *ratelimit.Budget { return s.budget }

// NumShards reports the per-round shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// ScheduledRounds reports how many rounds the campaign will run.
func (s *Server) ScheduledRounds() int { return len(s.days) }

// Reports returns a copy of the completed rounds' reports.
func (s *Server) Reports() []core.RoundReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.RoundReport(nil), s.reports...)
}

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
// present, so lease-expiry arithmetic in views matches the budget's.
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
	for _, id := range s.obs.sortedWorkers() {
		series = append(series, metrics.LabeledSnapshot{
			Labels: []metrics.Label{{Key: "worker", Value: id}},
			Snap:   s.obs.workers[id].metrics,
		})
	}
	s.mu.Unlock()
	return metrics.WritePromSeries(w, "whowas", series)
}

// recordLocked appends one status-history record for the given event.
// Callers hold s.mu.
func (s *Server) recordLocked(event, worker string) {
	s.obs.record(s.statusLocked(event, worker, s.round))
}

// statusLocked builds a status snapshot with round r (nil when none
// is open) as the current round. Callers hold s.mu; the budget takes
// only its leaf lock, so the ordering s.mu → budget is safe.
func (s *Server) statusLocked(event, worker string, r *roundState) Status {
	now := s.now()
	st := Status{
		TimeMS:           now.UnixMilli(),
		Event:            event,
		Worker:           worker,
		Cloud:            s.st.CloudName,
		RoundsTotal:      len(s.days),
		RoundsCompleted:  s.roundsDone,
		Done:             s.campaignDone,
		Round:            -1,
		LeasesExpired:    s.mExpired.Load(),
		ShardsReassigned: s.mReassigned.Load(),
		Rate:             s.budget.Rate(),
		LeasedRate:       s.budget.Leased(),
		Unlimited:        s.unlimited,
	}
	for _, l := range s.budget.Leases() {
		st.Leases = append(st.Leases, LeaseState{
			Worker:      l.ID,
			Rate:        l.Rate,
			ExpiresInMS: l.Expires.Sub(now).Milliseconds(),
		})
	}
	if r != nil {
		st.Round = r.idx
		st.Day = r.day
		st.ShardsPending = len(r.pending)
		st.ShardsDone = r.nDone
		st.ShardsAssigned = len(s.shards) - len(r.pending) - r.nDone
		st.Degraded = r.degraded
	}
	if !s.unlimited && st.Rate > 0 {
		st.QuotaUtilization = st.LeasedRate / st.Rate
	}
	return st
}

// wake nudges the round loop after a state change. Always called with
// s.mu released — a send under the lock would invert the loop's
// lock/recv order.
func (s *Server) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// reapLocked expires dead leases and re-queues their unfinished
// shards, recording each expiry in the status history. Callers hold
// s.mu.
func (s *Server) reapLocked() {
	for _, id := range s.budget.Reap() {
		s.mExpired.Inc()
		s.requeueLocked(id)
		s.recordLocked("lease_expired", id)
	}
}

// requeueLocked returns a worker's assigned-but-unfinished shards to
// the pending queue. Callers hold s.mu.
func (s *Server) requeueLocked(worker string) {
	r := s.round
	if r == nil {
		return
	}
	for shard, owner := range r.owner {
		if owner == worker && !r.done[shard] {
			r.owner[shard] = ""
			r.pending = append(r.pending, shard)
			s.mReassigned.Inc()
		}
	}
}

// Run drives the campaign: one round per scheduled day, each waiting
// until every shard has been submitted (re-assigning as leases die),
// then finalizing through core.FinishRound like the in-process
// round. After the last round, workers asking for work are told to
// exit.
func (s *Server) Run(ctx context.Context) error {
	for i, day := range s.days {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.runRound(ctx, i, day); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.campaignDone = true
	s.recordLocked("campaign_done", "")
	s.mu.Unlock()
	s.wake()
	return nil
}

func (s *Server) runRound(ctx context.Context, idx, day int) error {
	if err := s.cloud.SetDay(ctx, day); err != nil {
		return fmt.Errorf("coord: round %d: %w", idx, err)
	}
	if _, err := s.st.BeginRound(day); err != nil {
		return err
	}
	r := &roundState{
		idx:     idx,
		day:     day,
		start:   time.Now(),
		pending: make([]int, len(s.shards)),
		owner:   make([]string, len(s.shards)),
		done:    make([]bool, len(s.shards)),
		results: make([]*core.ShardResult, len(s.shards)),
	}
	for i := range s.shards {
		r.pending[i] = i
	}
	// The coordinator's round span mirrors the in-process round's root:
	// accepted worker spans reparent under it, so the merged journal's
	// per-round breakdown reads like a single-process campaign's.
	r.span = s.cfg.Tracer.Start("round", nil,
		trace.Int("round", idx), trace.Int("day", day))
	s.mu.Lock()
	s.round = r
	s.recordLocked("round_begin", "")
	s.mu.Unlock()

	// Reap on a quarter-TTL cadence so a dead worker's shards are
	// back in the queue well before the survivors go idle.
	reapTick := time.NewTicker(s.cfg.LeaseTTL / 4)
	defer reapTick.Stop()
	var deadline <-chan time.Time
	if s.cfg.RoundTimeout > 0 {
		t := time.NewTimer(s.cfg.RoundTimeout)
		defer t.Stop()
		deadline = t.C
	}
	timedOut := false
	for {
		s.mu.Lock()
		s.reapLocked()
		complete := r.nDone == len(s.shards)
		s.mu.Unlock()
		if complete || timedOut {
			break
		}
		select {
		case <-ctx.Done():
			// A cancelled campaign must not wedge the store on an open
			// round; drop the partial round like runRound does.
			s.mu.Lock()
			s.round = nil
			s.mu.Unlock()
			_ = s.st.AbortRound()
			r.span.SetAttr(trace.String("error", "cancelled"))
			r.span.End()
			return ctx.Err()
		case <-deadline:
			timedOut = true
		case <-s.notify:
		case <-reapTick.C:
		}
	}

	s.mu.Lock()
	s.round = nil
	s.mu.Unlock()

	// With s.round cleared no submission can land: r.results is final.
	report, err := core.FinishRound(s.st, s.shards, r.results, timedOut)
	if err != nil {
		r.span.End()
		return err
	}
	report.Round, report.Day, report.Total = idx, day, time.Since(r.start)
	r.span.SetAttr(
		trace.Int64("records", report.Records),
		trace.Bool("degraded", report.Degraded),
	)
	r.span.End()
	s.mu.Lock()
	s.reports = append(s.reports, report)
	s.roundsDone++
	// s.round is already cleared: the finished round's identity comes
	// from r.
	r.degraded = report.Degraded
	s.obs.record(s.statusLocked("round_end", "", r))
	s.mu.Unlock()
	s.mRounds.Inc()
	if s.cfg.Observer != nil {
		s.cfg.Observer(report)
	}
	return nil
}

// DrainWorkers blocks until every worker has been told the campaign
// is done and released its lease (or ctx expires). Call after Run so
// a clean shutdown leaves no orphaned workers polling.
func (s *Server) DrainWorkers(ctx context.Context) error {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if len(s.budget.Holders()) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.notify:
		case <-tick.C:
		}
	}
}

// Shutdown stops the protocol server, closes the cloud client and
// releases the store backend. Idempotent; safe on a server never
// started.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closeErr = s.ctrl.Shutdown(ctx)
		if err := s.cloud.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		// A shutdown mid-round abandons the open round — the backend
		// holds only finalized rounds either way — so the abort error
		// ("no open round" in the normal case) is deliberately ignored.
		_ = s.st.AbortRound()
		if err := s.st.Close(); err != nil && s.closeErr == nil {
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
	s.mu.Lock()
	s.reapLocked()
	_, err := s.budget.Acquire(rr.Worker, s.slice)
	if err == nil {
		// A re-registering worker lost its session state; its old
		// assignments must go back in the queue.
		s.requeueLocked(rr.Worker)
		s.recordLocked("register", rr.Worker)
	}
	s.mu.Unlock()
	if err != nil {
		httpd.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	s.mRegistered.Inc()
	s.wake()
	httpd.WriteJSON(w, RegisterReply{
		Lease:          rr.Worker,
		Rate:           s.slice,
		Unlimited:      s.unlimited,
		TTLMS:          s.cfg.LeaseTTL.Milliseconds(),
		CloudAddr:      s.cfg.CloudAddr,
		Attempts:       s.cfg.Attempts,
		KeepBodies:     s.cfg.KeepBodies,
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
	if _, err := s.budget.Renew(hb.Worker); err != nil {
		httpd.WriteError(w, http.StatusGone, err.Error())
		return
	}
	s.mu.Lock()
	s.obs.observe(hb.Worker, hb.Metrics, nil, s.now())
	s.mu.Unlock()
	httpd.WriteJSON(w, HeartbeatReply{ExpiresInMS: s.cfg.LeaseTTL.Milliseconds()})
}

func (s *Server) handleNext(w http.ResponseWriter, req *http.Request) {
	var nr NextRequest
	if !httpd.DecodeBody(w, req, &nr) {
		return
	}
	if _, err := s.budget.Renew(nr.Worker); err != nil {
		httpd.WriteError(w, http.StatusGone, err.Error())
		return
	}
	var a Assignment
	released := false
	s.mu.Lock()
	switch r := s.round; {
	case r != nil && len(r.pending) > 0:
		shard := r.pending[0]
		r.pending = r.pending[1:]
		r.owner[shard] = nr.Worker
		a = Assignment{
			State:   StateRun,
			Round:   r.idx,
			Day:     r.day,
			Shard:   shard,
			Regions: s.shards[shard],
		}
		s.mAssigned.Inc()
	case s.campaignDone && s.round == nil:
		a = Assignment{State: StateDone}
		released = s.budget.Release(nr.Worker) == nil
	default:
		a = Assignment{State: StateWait, RetryMS: defaultRetryMS}
	}
	s.mu.Unlock()
	if released {
		s.wake()
	}
	httpd.WriteJSON(w, a)
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var sr SubmitRequest
	if !httpd.DecodeBody(w, req, &sr) {
		return
	}
	accepted := false
	var putErr error
	var rootID uint64
	s.mu.Lock()
	r := s.round
	if r != nil && sr.Round == r.idx &&
		sr.Shard >= 0 && sr.Shard < len(r.done) &&
		!r.done[sr.Shard] && r.owner[sr.Shard] == sr.Worker {
		if putErr = s.st.PutBatch(sr.Result.Records); putErr == nil {
			res := sr.Result
			r.done[sr.Shard] = true
			r.results[sr.Shard] = &res
			r.nDone++
			if res.Degraded {
				r.degraded = true
			}
			accepted = true
			rootID = r.span.ID()
			s.recordLocked("submit", sr.Worker)
		}
	}
	s.mu.Unlock()
	if putErr != nil {
		httpd.WriteError(w, http.StatusInternalServerError, putErr.Error())
		return
	}
	// Merge an accepted shard's spans into the coordinator's journal:
	// renumber into this tracer's ID space, parent under the round
	// span, and stamp with the worker identity. Stale submissions'
	// spans are discarded with the records.
	var spans []trace.SpanSnapshot
	if accepted {
		spans = restampSpans(sr.Spans, s.cfg.Tracer.ReserveIDs(len(sr.Spans)), rootID, sr.Worker, sr.Round, sr.Shard)
		s.cfg.Tracer.Record(spans...)
	}
	s.mu.Lock()
	s.obs.observe(sr.Worker, sr.Metrics, spans, s.now())
	s.mu.Unlock()
	if accepted {
		s.mCompleted.Inc()
		s.wake()
	} else {
		s.mRejected.Inc()
	}
	httpd.WriteJSON(w, SubmitReply{Accepted: accepted})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := s.statusLocked("", "", s.round)
	s.mu.Unlock()
	httpd.WriteJSON(w, st)
}

// fleetView assembles the fleet document: the live status plus
// per-worker throughput, lease states, merged fleet metrics, and the
// status-history tail.
func (s *Server) fleetView() Fleet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs.view(s.now(), s.statusLocked("", "", s.round))
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	httpd.WriteJSON(w, s.fleetView())
}
