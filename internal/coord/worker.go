package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/core"
	"whowas/internal/httpd"
	"whowas/internal/metrics"
	"whowas/internal/ratelimit"
	"whowas/internal/trace"
)

// WorkerConfig drives one worker process (or goroutine).
type WorkerConfig struct {
	// Coordinator is the coordinator's protocol address
	// ("host:port" or "http://host:port").
	Coordinator string
	// ID names the worker (and its lease). Empty means a PID-derived
	// default; fleets must keep IDs unique.
	ID string
	// Metrics, when non-nil, instruments the worker's scanner/fetcher.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives one line per lifecycle event
	// (registered, assigned, submitted, re-registering).
	Logf func(format string, args ...any)
}

// errReregister signals a lost lease mid-session: the worker's state
// is stale and it must register again.
var errReregister = errors.New("coord: lease lost; re-registering")

// Worker leases a slice of the coordinator's probe budget and runs
// assigned shards until the campaign is done. Run blocks; Close is
// idempotent and releases the cloud connections.
type Worker struct {
	cfg    WorkerConfig
	coord  *httpd.Client
	tracer *trace.Tracer
	// spanCursor marks the tracer's spans already submitted; only the
	// work loop touches it.
	spanCursor int64

	mu     sync.Mutex
	closed bool
	cloud  *cloudapi.Client

	// testOnAssign, when set, runs before each assignment executes —
	// the in-process chaos tests inject worker death through it.
	testOnAssign func(Assignment)
}

// NewWorker validates the config and builds a worker. No network
// traffic happens until Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("coord: Coordinator address required")
	}
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	client, err := httpd.NewClient(cfg.Coordinator, 2*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	// The worker's spans stay in its tracer's ring until the next shard
	// submission takes them; the coordinator owns the durable journal.
	return &Worker{
		cfg:    cfg,
		coord:  client,
		tracer: trace.New(trace.Config{}),
	}, nil
}

// ID returns the worker's (possibly defaulted) identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Tracer exposes the worker's tracer (tests assert on its spans).
func (w *Worker) Tracer() *trace.Tracer { return w.tracer }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run registers with the coordinator, leases its budget slice, dials
// the shared cloud, and loops next → run shard → submit until the
// campaign is done (nil) or ctx is cancelled. A lost lease (410) at
// any point re-registers and continues; a shard execution failure
// returns the error — the worker dies and the coordinator's lease
// expiry re-assigns its work, which is the designed failure path.
func (w *Worker) Run(ctx context.Context) error {
	defer w.closeIdle()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.session(ctx)
		if errors.Is(err, errReregister) {
			w.logf("worker %s: %v", w.cfg.ID, err)
			continue
		}
		return err
	}
}

// session is one register → work cycle. It returns nil when the
// campaign is done, errReregister when the lease was lost, and a
// terminal error otherwise.
func (w *Worker) session(ctx context.Context) error {
	reg, err := w.register(ctx)
	if err != nil {
		return err
	}
	w.logf("worker %s: registered (rate %.0f pps, unlimited=%v, ttl %dms)",
		w.cfg.ID, reg.Rate, reg.Unlimited, reg.TTLMS)
	cloud, err := w.dialCloud(ctx, reg.CloudAddr)
	if err != nil {
		return err
	}
	runner, err := core.NewShardRunner(cloud, w.shardConfig(reg))
	if err != nil {
		return err
	}
	defer runner.CloseIdle()

	// The heartbeat keeps the lease alive across long shards; it is
	// tied to the session context so Run's return always reaps it.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	var hbMu sync.Mutex
	var hbErr error
	ttl := time.Duration(reg.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-inner.Done():
				return
			case <-t.C:
				if err := w.heartbeat(inner); err != nil {
					if inner.Err() != nil {
						// The session ended under a heartbeat in flight:
						// the error is that cancellation, not a verdict.
						return
					}
					hbMu.Lock()
					hbErr = err
					hbMu.Unlock()
					cancel()
					return
				}
			}
		}
	}()
	err = w.work(inner, runner)
	cancel()
	wg.Wait()
	// A heartbeat failure cancelled the work loop from outside; its
	// verdict (re-register vs. terminal) wins over the induced
	// context error.
	hbMu.Lock()
	defer hbMu.Unlock()
	if hbErr != nil && ctx.Err() == nil {
		return hbErr
	}
	return err
}

// work loops assignments until done, a lost lease, or cancellation.
func (w *Worker) work(ctx context.Context, runner *core.ShardRunner) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		a, err := w.next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, errReregister) {
				return err
			}
			// The coordinator may be briefly unreachable (restart,
			// listen backlog); keep polling until ctx says otherwise.
			w.logf("worker %s: next: %v", w.cfg.ID, err)
			if err := ratelimit.Sleep(ctx, 500*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		switch a.State {
		case StateDone:
			w.logf("worker %s: campaign done", w.cfg.ID)
			return nil
		case StateWait:
			d := time.Duration(a.RetryMS) * time.Millisecond
			if d <= 0 {
				d = defaultRetryMS * time.Millisecond
			}
			if err := ratelimit.Sleep(ctx, d); err != nil {
				return err
			}
		case StateRun:
			if w.testOnAssign != nil {
				w.testOnAssign(*a)
			}
			w.logf("worker %s: running round %d shard %d (%s)",
				w.cfg.ID, a.Round, a.Shard, strings.Join(a.Regions, ","))
			res, err := runner.RunShard(ctx, a.Regions)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("coord: worker %s shard %d: %w", w.cfg.ID, a.Shard, err)
			}
			accepted, err := w.submit(ctx, *a, res)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
			w.logf("worker %s: submitted round %d shard %d (%d records, accepted=%v)",
				w.cfg.ID, a.Round, a.Shard, len(res.Records), accepted)
		default:
			return fmt.Errorf("coord: unknown assignment state %q", a.State)
		}
	}
}

// shardConfig builds the worker's campaign config from the
// coordinator's directives, on the same base a single-process
// simulation campaign uses so the records match byte for byte.
func (w *Worker) shardConfig(reg *RegisterReply) core.CampaignConfig {
	cfg := core.FastCampaign()
	if !reg.Unlimited {
		cfg.Scanner.Rate = reg.Rate
	}
	if reg.Attempts > 0 {
		cfg.Scanner.Attempts = reg.Attempts
		cfg.Fetcher.Attempts = reg.Attempts
	}
	cfg.KeepBodies = reg.KeepBodies
	cfg.RoundTimeout = time.Duration(reg.RoundTimeoutMS) * time.Millisecond
	cfg.Faults = reg.Faults
	cfg.Scanner.Metrics = w.cfg.Metrics
	cfg.Fetcher.Metrics = w.cfg.Metrics
	cfg.Scanner.Tracer = w.tracer
	cfg.Fetcher.Tracer = w.tracer
	return cfg
}

// dialCloud dials the shared cloud daemon once and caches the client
// across re-registrations.
func (w *Worker) dialCloud(ctx context.Context, addr string) (*cloudapi.Client, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("coord: worker closed")
	}
	if w.cloud != nil {
		return w.cloud, nil
	}
	cloud, err := cloudapi.Dial(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("coord: dialing cloud: %w", err)
	}
	w.cloud = cloud
	return cloud, nil
}

// register acquires a lease, retrying while the coordinator is not up
// yet or its budget is momentarily full (a dead predecessor's lease
// may need to expire first).
func (w *Worker) register(ctx context.Context) (*RegisterReply, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var reply RegisterReply
		code, err := w.coord.PostJSON(ctx, "/coord/register", RegisterRequest{Worker: w.cfg.ID}, &reply)
		switch {
		case err == nil:
			return &reply, nil
		case code == 0 || code == http.StatusOK || code == http.StatusConflict:
			// Not up yet, an answer cut short, or the budget is full
			// (the reason says which): all pass.
			w.logf("worker %s: register: %v; retrying", w.cfg.ID, err)
		default:
			return nil, fmt.Errorf("coord: %w", err)
		}
		if err := ratelimit.Sleep(ctx, 200*time.Millisecond); err != nil {
			return nil, err
		}
	}
}

func (w *Worker) heartbeat(ctx context.Context) error {
	var reply HeartbeatReply
	return w.post(ctx, "/coord/heartbeat",
		HeartbeatRequest{Worker: w.cfg.ID, Metrics: w.cfg.Metrics.Snapshot()}, &reply)
}

func (w *Worker) next(ctx context.Context) (*Assignment, error) {
	var a Assignment
	if err := w.post(ctx, "/coord/next", NextRequest{Worker: w.cfg.ID}, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

func (w *Worker) submit(ctx context.Context, a Assignment, res *core.ShardResult) (bool, error) {
	var reply SubmitReply
	err := w.post(ctx, "/coord/submit", w.submitRequest(a, res), &reply)
	return reply.Accepted, err
}

// submitRequest builds one shard's submission: its result, the
// worker's metrics snapshot, and the spans completed since the
// previous submission, taken straight from the tracer's ring.
func (w *Worker) submitRequest(a Assignment, res *core.ShardResult) SubmitRequest {
	req := SubmitRequest{
		Worker:  w.cfg.ID,
		Round:   a.Round,
		Shard:   a.Shard,
		Result:  *res,
		Metrics: w.cfg.Metrics.Snapshot(),
	}
	req.Spans, w.spanCursor = w.tracer.CompletedSince(w.spanCursor)
	return req
}

// post is one leased-session exchange: a 410 means the lease is gone
// (errReregister, with the coordinator's reason logged); any other
// failure carries the coordinator's reason in the returned error.
func (w *Worker) post(ctx context.Context, path string, body, reply any) error {
	code, err := w.coord.PostJSON(ctx, path, body, reply)
	if err == nil {
		return nil
	}
	if code == http.StatusGone {
		w.logf("worker %s: %v", w.cfg.ID, err)
		return errReregister
	}
	return fmt.Errorf("coord: %w", err)
}

// closeIdle drops pooled connections without marking the worker
// closed (Run's exit path; Run may be retried).
func (w *Worker) closeIdle() {
	w.coord.Close()
	w.mu.Lock()
	cloud := w.cloud
	w.mu.Unlock()
	if cloud != nil {
		_ = cloud.Close()
	}
}

// Close releases the worker's connections. Idempotent; safe
// concurrently with Run (whose requests then fail and surface as a
// terminal error).
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	cloud := w.cloud
	w.cloud = nil
	w.mu.Unlock()
	w.coord.Close()
	if cloud != nil {
		return cloud.Close()
	}
	return nil
}
