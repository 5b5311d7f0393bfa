package coord

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"whowas/internal/metrics"
)

// TestWorkerDeathReassignment kills a worker the moment it receives
// its first shard assignment — before it probes or heartbeats — and
// asserts the coordinator's lease machinery does its job: the lease
// expires, its budget tokens return to the pool, the orphaned shard
// is re-queued, the surviving worker finishes the campaign, and the
// final digest is still byte-identical to a single-process run.
func TestWorkerDeathReassignment(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed chaos campaign skipped in -short mode")
	}
	want := baselineDigest(t)
	clouddAddr := startCloudd(t)

	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout())
	defer cancel()
	reg := metrics.NewRegistry()
	srv, err := NewServer(ctx, Config{
		CloudAddr: clouddAddr,
		Rounds:    coordDays,
		LeaseTTL:  time.Second,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
	}()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	// The victim registers alone, takes the round's first shard, and
	// its context is cancelled right there: no probes, no submit, no
	// further heartbeats. From the coordinator's view it just died.
	vctx, vkill := context.WithCancel(ctx)
	defer vkill()
	victim, err := NewWorker(WorkerConfig{Coordinator: addr, ID: "victim", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	died := make(chan struct{})
	var once sync.Once
	victim.testOnAssign = func(Assignment) {
		once.Do(func() {
			vkill()
			close(died)
		})
	}
	victimErr := make(chan error, 1)
	go func() {
		defer func() {
			if err := victim.Close(); err != nil {
				t.Errorf("victim close: %v", err)
			}
		}()
		victimErr <- victim.Run(vctx)
	}()
	select {
	case <-died:
	case <-time.After(time.Minute):
		t.Fatal("victim never received an assignment")
	}
	if err := <-victimErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("victim run = %v, want context.Canceled", err)
	}

	// The victim's lease must expire and return its tokens to the
	// budget while the campaign is still running.
	deadline := time.Now().Add(15 * time.Second)
	for holds(srv.Budget().Holders(), "victim") {
		if time.Now().After(deadline) {
			t.Fatal("victim lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A lone survivor inherits the orphaned shard and every one after.
	survivor, err := NewWorker(WorkerConfig{Coordinator: addr, ID: "survivor", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if err := survivor.Close(); err != nil {
				t.Errorf("survivor close: %v", err)
			}
		}()
		if err := survivor.Run(ctx); err != nil {
			t.Errorf("survivor: %v", err)
		}
	}()

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

	if got := reg.Counter("coord.leases_expired").Load(); got < 1 {
		t.Errorf("coord.leases_expired = %d, want >= 1", got)
	}
	if got := reg.Counter("coord.shards_reassigned").Load(); got < 1 {
		t.Errorf("coord.shards_reassigned = %d, want >= 1", got)
	}
	// The death must be visible in the status history: a lease_expired
	// record naming the victim, with the re-assignment tallied.
	expired := false
	for _, rec := range srv.fleetView().History {
		if rec.Event == "lease_expired" && rec.Worker == "victim" {
			expired = true
			if rec.ShardsReassigned < 1 {
				t.Errorf("lease_expired record shows %d reassignments, want >= 1", rec.ShardsReassigned)
			}
		}
	}
	if !expired {
		t.Error("status history never recorded the victim's lease expiry")
	}
	if holders := srv.Budget().Holders(); len(holders) != 0 {
		t.Errorf("leases outstanding after drain: %v", holders)
	}
	for _, r := range srv.Reports() {
		if r.Degraded {
			t.Errorf("round %d degraded: re-assignment should recover, not degrade", r.Round)
		}
	}
	got, err := srv.Store().Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-death digest %s != single-process digest %s", got, want)
	}
}

// TestWorkerRejoinAfterDeath is the second half of the failure model:
// a worker that re-registers under its old identity (a restarted
// process) must get a fresh lease — not double-count the budget — and
// its previous session's orphaned shards must be re-queued rather
// than waiting on a now-live lease that never expires.
func TestWorkerRejoinAfterDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed chaos campaign skipped in -short mode")
	}
	want := baselineDigest(t)
	clouddAddr := startCloudd(t)

	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout())
	defer cancel()
	reg := metrics.NewRegistry()
	srv, err := NewServer(ctx, Config{
		CloudAddr:  clouddAddr,
		Rounds:     coordDays,
		MaxWorkers: 1, // one lease slice: a rejoin must reuse it, not leak it
		LeaseTTL:   time.Second,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
	}()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	// First incarnation: takes a shard and dies on the spot.
	vctx, vkill := context.WithCancel(ctx)
	defer vkill()
	first, err := NewWorker(WorkerConfig{Coordinator: addr, ID: "phoenix", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	died := make(chan struct{})
	first.testOnAssign = func(Assignment) {
		once.Do(func() {
			vkill()
			close(died)
		})
	}
	firstErr := make(chan error, 1)
	go func() {
		defer func() { _ = first.Close() }()
		firstErr <- first.Run(vctx)
	}()
	select {
	case <-died:
	case <-time.After(time.Minute):
		t.Fatal("first incarnation never received an assignment")
	}
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("first incarnation run = %v, want context.Canceled", err)
	}

	// Second incarnation rejoins under the SAME identity. Register must
	// replace the dead lease in place (not stack a second one) and
	// re-queue the orphaned shard — a shard left owned by the now-live
	// lease would never expire and the round would hang. Budget is
	// MaxWorkers=1, so any token leak would wedge registration forever.
	second, err := NewWorker(WorkerConfig{Coordinator: addr, ID: "phoenix", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if err := second.Close(); err != nil {
				t.Errorf("second incarnation close: %v", err)
			}
		}()
		if err := second.Run(ctx); err != nil {
			t.Errorf("second incarnation: %v", err)
		}
	}()

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

	if got := reg.Counter("coord.shards_reassigned").Load(); got < 1 {
		t.Errorf("coord.shards_reassigned = %d, want >= 1", got)
	}
	got, err := srv.Store().Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-rejoin digest %s != single-process digest %s", got, want)
	}
}

func holds(ids []string, id string) bool {
	for _, h := range ids {
		if h == id {
			return true
		}
	}
	return false
}
