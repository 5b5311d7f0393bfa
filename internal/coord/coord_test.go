package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/core"
	"whowas/internal/metrics"
	"whowas/internal/ratelimit"
	"whowas/internal/websim"
)

// The coord suite runs whole distributed campaigns — a real
// whowas-cloudd-equivalent cloudapi.Server, a coordinator, and N
// in-process workers over real sockets — and holds them to the same
// acceptance bar as every other execution mode: the store digest must
// be byte-identical to a single-process run of the same seed.

// coordDays is the round schedule every campaign here runs. The race
// detector slows the socket-heavy campaigns ~10x, so it gets a
// shorter schedule (the identity property is per-round; two rounds
// exercise it as well as three).
var coordDays = func() []int {
	if raceDetectorOn {
		return []int{0, 2}
	}
	return []int{0, 2, 4}
}()

// campaignTimeout bounds one distributed campaign, with headroom for
// the race detector's slowdown.
func campaignTimeout() time.Duration {
	if raceDetectorOn {
		return 10 * time.Minute
	}
	return 4 * time.Minute
}

// coordCloudConfig is a tiny two-region EC2-like cloud, small enough
// to probe over real sockets several times per test run.
func coordCloudConfig() cloudapi.SimConfig {
	return cloudapi.SimConfig{
		Name:      "coord-ec2",
		Kind:      websim.EC2Like,
		Days:      8,
		Seed:      91,
		BaseOctet: 54,
		Regions: []cloudapi.RegionConfig{
			{Name: "east", Prefixes22: 1, VPC22: 1},
			{Name: "south", Prefixes22: 1, VPC22: 0},
		},
		Population: cloudapi.PopulationConfig{
			TargetResponsive:     0.237,
			Growth:               0.033,
			SSHOnly:              0.259,
			HTTPOnly:             0.380,
			HTTPSOnly:            0.055,
			HTTPBoth:             0.306,
			HTTPFailRate:         0.006,
			DailyBackgroundChurn: 0.05,
			SingletonFrac:        0.788,
			SmallFrac:            0.208,
			MediumFrac:           0.0028,
			EphemeralFrac:        0.114,
			WebClusters:          250,
			VPCClusterShare:      0.27,
			RegisteredDNSShare:   0.55,
		},
	}
}

// startCloudd stands up the shared cloud daemon and returns its
// control address. Shutdown is registered as test cleanup.
func startCloudd(t testing.TB) string {
	t.Helper()
	backing, err := cloudapi.NewInProcess(coordCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := cloudapi.NewServer(backing, cloudapi.ServerConfig{DataListeners: 2})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return addr
}

var (
	baselineOnce   sync.Once
	baselineResult string
	baselineErr    error
)

// baselineDigest runs the reference single-process campaign (the
// exact configuration a worker reconstructs from its RegisterReply)
// over an in-process cloud and returns the store digest. Computed
// once; every distributed run must reproduce it byte for byte.
func baselineDigest(t *testing.T) string {
	t.Helper()
	baselineOnce.Do(func() {
		cloud, err := cloudapi.NewInProcess(coordCloudConfig())
		if err != nil {
			baselineErr = err
			return
		}
		p, err := core.NewPlatformCloud(cloud)
		if err != nil {
			baselineErr = err
			return
		}
		cfg := core.FastCampaign()
		cfg.RoundDays = coordDays
		ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout())
		defer cancel()
		if err := p.RunCampaign(ctx, cfg); err != nil {
			baselineErr = err
			return
		}
		baselineResult, baselineErr = p.Store.Digest()
	})
	if baselineErr != nil {
		t.Fatalf("baseline campaign: %v", baselineErr)
	}
	return baselineResult
}

// runFleet drives one distributed campaign: a coordinator over the
// given cloudd plus n workers, returning the coordinator (shut down
// at cleanup) after Run and DrainWorkers complete.
func runFleet(t *testing.T, clouddAddr string, cfg Config, n int) *Server {
	t.Helper()
	return runFleetLogf(t, clouddAddr, cfg, n, t.Logf)
}

// runFleetLogf is runFleet with the workers' log lines routed to logf.
func runFleetLogf(t *testing.T, clouddAddr string, cfg Config, n int, logf func(string, ...any)) *Server {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout())
	t.Cleanup(cancel)
	srv, err := NewServer(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator: addr,
			ID:          fmt.Sprintf("w%d", i),
			Metrics:     metrics.NewRegistry(),
			Logf:        logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if err := w.Close(); err != nil {
					t.Errorf("worker %s close: %v", w.ID(), err)
				}
			}()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.ID(), err)
			}
		}()
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("coordinator run: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("coordinator run timed out")
	}
	dctx, dcancel := context.WithTimeout(ctx, 30*time.Second)
	defer dcancel()
	if err := srv.DrainWorkers(dctx); err != nil {
		t.Fatalf("draining workers: %v", err)
	}
	wg.Wait()
	return srv
}

// TestCoordinatorDigestIdentity is the tentpole acceptance gate: the
// same seeded campaign run by 1, 2 and 4 workers (across shard
// layouts, including more workers than shards and a budget tighter
// than the fleet) must reproduce the single-process store digest
// byte for byte.
func TestCoordinatorDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed identity campaigns skipped in -short mode")
	}
	want := baselineDigest(t)
	cases := []struct {
		workers    int
		shards     int
		maxWorkers int
	}{
		{workers: 1, shards: 0, maxWorkers: 8},
		// Three workers contending for two lease slices: the third
		// blocks on 409 until the campaign's end frees a slice.
		{workers: 3, shards: 0, maxWorkers: 2},
		{workers: 4, shards: 1, maxWorkers: 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("workers=%d_shards=%d_max=%d", tc.workers, tc.shards, tc.maxWorkers), func(t *testing.T) {
			clouddAddr := startCloudd(t)
			var logMu sync.Mutex
			var logged []string
			srv := runFleetLogf(t, clouddAddr, Config{
				CloudAddr:  clouddAddr,
				Rounds:     coordDays,
				Shards:     tc.shards,
				MaxWorkers: tc.maxWorkers,
				LeaseTTL:   5 * time.Second,
				Metrics:    metrics.NewRegistry(),
			}, tc.workers, func(format string, args ...any) {
				logMu.Lock()
				defer logMu.Unlock()
				logged = append(logged, fmt.Sprintf(format, args...))
			})
			// A worker refused a lease slice is told why: the coordinator's
			// 409 reason reaches its log, not just the status code.
			if tc.workers > tc.maxWorkers {
				logMu.Lock()
				lines := strings.Join(logged, "\n")
				logMu.Unlock()
				want := fmt.Sprintf("409 Conflict: coord: fleet full: all %d worker leases held", tc.maxWorkers)
				if !strings.Contains(lines, want) {
					t.Errorf("no worker logged the coordinator's refusal reason %q:\n%s", want, lines)
				}
			}
			if n := srv.Store().NumRounds(); n != len(coordDays) {
				t.Fatalf("rounds collected = %d, want %d", n, len(coordDays))
			}
			got, err := srv.Store().Digest()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("distributed digest %s != single-process digest %s", got, want)
			}
			if holders := leaseHolders(srv); len(holders) != 0 {
				t.Errorf("leases outstanding after drain: %v", holders)
			}
			reports := srv.Reports()
			if len(reports) != len(coordDays) {
				t.Fatalf("reports = %d, want %d", len(reports), len(coordDays))
			}
			for _, r := range reports {
				if r.Degraded {
					t.Errorf("round %d degraded in a healthy campaign", r.Round)
				}
				if r.Records == 0 || r.Probed == 0 {
					t.Errorf("round %d empty: %+v", r.Round, r)
				}
				if len(r.Regions) != 2 {
					t.Errorf("round %d regions = %d, want 2", r.Round, len(r.Regions))
				}
			}
		})
	}
}

// TestCoordinatorStatus exercises the introspection surface during
// and after a campaign.
func TestCoordinatorStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed campaign skipped in -short mode")
	}
	clouddAddr := startCloudd(t)
	srv := runFleet(t, clouddAddr, Config{
		CloudAddr: clouddAddr,
		Rounds:    []int{0},
		LeaseTTL:  5 * time.Second,
		Metrics:   metrics.NewRegistry(),
	}, 2)
	if got := srv.NumShards(); got != 2 {
		t.Errorf("NumShards = %d, want 2", got)
	}
	if got := srv.ScheduledRounds(); got != 1 {
		t.Errorf("ScheduledRounds = %d, want 1", got)
	}
	// A fleet round reports its lanes' timings like an in-process one,
	// on Reports() and over the ops surface's /rounds.
	reports := srv.Reports()
	if len(reports) != 1 || reports[0].Scan <= 0 || reports[0].Total < reports[0].Scan {
		t.Errorf("fleet reports = %+v, want one round with scan > 0 and total >= scan", reports)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire []struct {
		ScanNS int64 `json:"scan_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != 1 || wire[0].ScanNS <= 0 {
		t.Errorf("/rounds = %+v, want one round with scan_ns > 0", wire)
	}
}

// TestWorkerDoneWithHeartbeatInFlight is the regression test for the
// worker's self-inflicted "context canceled": a heartbeat caught in
// flight when the campaign completes is aborted by the session's own
// teardown, and that induced error must not become Run's result.
func TestWorkerDoneWithHeartbeatInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed campaign skipped in -short mode")
	}
	clouddAddr := startCloudd(t)
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout())
	defer cancel()
	srv, err := NewServer(ctx, Config{
		CloudAddr: clouddAddr,
		Rounds:    []int{0},
		// A short TTL puts the first heartbeat 100ms after registration;
		// the frozen clock keeps the lease from expiring while that
		// heartbeat — the worker's only one — is held.
		LeaseTTL: 300 * time.Millisecond,
		Clock:    ratelimit.NewFakeClock(time.Unix(1380499200, 0)),
		Metrics:  metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first heartbeat to arrive is held in its handler until the
	// test ends.
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testOnHeartbeat = func() {
		once.Do(func() { close(inFlight) })
		<-release
	}
	defer func() {
		close(release)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
	}()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Coordinator: addr, ID: "hb", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	workErr := make(chan error, 1)
	go func() { workErr <- w.Run(ctx) }()

	// Only once the heartbeat is in flight does the campaign start, so
	// the worker reaches StateDone with it still outstanding.
	select {
	case <-inFlight:
	case <-ctx.Done():
		t.Fatal("no heartbeat arrived")
	}
	if err := srv.Run(ctx); err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	select {
	case err := <-workErr:
		if err != nil {
			t.Errorf("worker Run = %v after a clean campaign, want nil", err)
		}
	case <-ctx.Done():
		t.Fatal("worker never finished")
	}
}

// TestWorkerExitsPromptlyOnDone: a worker told StateDone returns from
// Run at once. Its heartbeat goroutine must stop on the session's
// cancellation, not on its ticker's next firing a third of a lease
// later (10 s at this TTL).
func TestWorkerExitsPromptlyOnDone(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed campaign skipped in -short mode")
	}
	clouddAddr := startCloudd(t)
	var mu sync.Mutex
	var doneAt time.Time
	logf := func(format string, args ...any) {
		if strings.HasSuffix(format, "campaign done") {
			mu.Lock()
			doneAt = time.Now()
			mu.Unlock()
		}
		t.Logf(format, args...)
	}
	runFleetLogf(t, clouddAddr, Config{
		CloudAddr: clouddAddr,
		Rounds:    []int{0},
		LeaseTTL:  30 * time.Second,
	}, 1, logf)
	// runFleetLogf returns only after the worker's Run has.
	mu.Lock()
	defer mu.Unlock()
	if doneAt.IsZero() {
		t.Fatal("worker never logged StateDone")
	}
	if d := time.Since(doneAt); d > 2*time.Second {
		t.Errorf("worker Run returned %v after StateDone, want < 2s", d)
	}
}
