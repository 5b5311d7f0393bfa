package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"whowas/internal/httpd"
	"whowas/internal/metrics"
	"whowas/internal/ratelimit"
)

// The lease tests drive the protocol handlers directly on a fake
// clock: no worker process, no listener, no wall-clock wait.

// leaseServer builds a coordinator over a fresh cloud daemon, on a
// fake clock and with a 5 s lease TTL unless cfg sets one.
func leaseServer(t testing.TB, cfg Config) (*Server, *ratelimit.FakeClock) {
	t.Helper()
	clk := ratelimit.NewFakeClock(time.Unix(1380499200, 0))
	cfg.CloudAddr = startCloudd(t)
	cfg.Clock = clk
	cfg.Metrics = metrics.NewRegistry()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	s, err := NewServer(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, clk
}

// call posts body to a protocol handler and decodes a 200 answer into
// reply, returning the status code and, on a refusal, its reason.
func call(t *testing.T, h http.HandlerFunc, body, reply any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(buf)))
	if rec.Code != http.StatusOK {
		var doc httpd.ErrorDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Errorf("refusal %d without an error document: %q", rec.Code, rec.Body)
		}
		return rec.Code, doc.Error
	}
	if reply != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
			t.Errorf("decoding %T: %v", reply, err)
		}
	}
	return rec.Code, ""
}

func register(t *testing.T, s *Server, id string) (RegisterReply, int, string) {
	t.Helper()
	var reply RegisterReply
	code, reason := call(t, s.handleRegister, RegisterRequest{Worker: id}, &reply)
	return reply, code, reason
}

func heartbeat(t *testing.T, s *Server, id string) int {
	t.Helper()
	code, _ := call(t, s.handleHeartbeat, HeartbeatRequest{Worker: id}, nil)
	return code
}

func next(t *testing.T, s *Server, id string) (Assignment, int) {
	t.Helper()
	var a Assignment
	code, _ := call(t, s.handleNext, NextRequest{Worker: id}, &a)
	return a, code
}

// leaseHolders lists the workers whose rows hold a lease, sorted.
func leaseHolders(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, id := range s.sortedWorkers() {
		if !s.workers[id].expires.IsZero() {
			out = append(out, id)
		}
	}
	return out
}

// openRound opens a round with every shard pending, as Run does,
// without touching the cloud or the store.
func openRound(s *Server) {
	s.apply(event{kind: evRoundBegin})
}

// expiries lists the workers of the history's lease_expired records,
// oldest first.
func expiries(s *Server) []string {
	var out []string
	for _, rec := range s.fleetView().History {
		if rec.Event == "lease_expired" {
			out = append(out, rec.Worker)
		}
	}
	return out
}

// reap runs the reaper's tick once at the fake clock's instant.
func reap(s *Server) {
	s.apply(event{kind: evReap})
}

// checkDeaths asserts the expiry counters, the lease_expired records
// and the pending shards of the open round.
func checkDeaths(t *testing.T, s *Server, expired, reassigned int64, dead string, pending []int) {
	t.Helper()
	reg := s.cfg.Metrics
	if got := reg.Counter("coord.leases_expired").Load(); got != expired {
		t.Errorf("leases_expired = %d, want %d", got, expired)
	}
	if got := reg.Counter("coord.shards_reassigned").Load(); got != reassigned {
		t.Errorf("shards_reassigned = %d, want %d", got, reassigned)
	}
	if got := strings.Join(expiries(s), " "); got != dead {
		t.Errorf("lease_expired records for %q, want %q", got, dead)
	}
	if pending == nil {
		return
	}
	s.mu.Lock()
	got := fmt.Sprint(s.round.pending)
	s.mu.Unlock()
	if want := fmt.Sprint(pending); got != want {
		t.Errorf("pending shards = %s, want %s", got, want)
	}
}

// TestLeaseFleetSlices: the budget is MaxWorkers equal slices. Each
// fleet size fills it exactly, and the next register gets a 409 that
// names the cap.
func TestLeaseFleetSlices(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s, _ := leaseServer(t, Config{MaxWorkers: n, Rate: 210})
			for i := 0; i < n; i++ {
				reply, code, reason := register(t, s, fmt.Sprintf("w%d", i))
				if code != http.StatusOK {
					t.Fatalf("register w%d = %d %s", i, code, reason)
				}
				if want := 210 / float64(n); reply.Rate != want {
					t.Errorf("slice = %v, want %v", reply.Rate, want)
				}
			}
			_, code, reason := register(t, s, "extra")
			if want := fmt.Sprintf("coord: fleet full: all %d worker leases held", n); code != http.StatusConflict || reason != want {
				t.Errorf("register past the cap = %d %q, want 409 %q", code, reason, want)
			}
			st := s.fleetView().Status
			if st.Rate != 210 || st.LeasedRate > st.Rate || st.LeasedRate < st.Rate*(1-1e-9) || len(leaseHolders(s)) != n {
				t.Errorf("rate %v, leased %v by %v; want the whole 210 by %d workers", st.Rate, st.LeasedRate, leaseHolders(s), n)
			}
		})
	}
}

// TestLeaseOverSubscriptionRejected: a refused register counts against
// nothing and leaves the refused worker without a lease. A slot freed
// by a lapsed lease is granted, and the full fleet refuses again.
func TestLeaseOverSubscriptionRejected(t *testing.T) {
	s, clk := leaseServer(t, Config{MaxWorkers: 2, Rate: 200})
	for _, id := range []string{"w0", "w1"} {
		if _, code, reason := register(t, s, id); code != http.StatusOK {
			t.Fatalf("register %s = %d %s", id, code, reason)
		}
	}
	if _, code, _ := register(t, s, "extra"); code != http.StatusConflict {
		t.Fatalf("register past the cap = %d, want 409", code)
	}
	if got := leaseHolders(s); strings.Join(got, " ") != "w0 w1" {
		t.Errorf("holders after the refusal = %v, want [w0 w1]", got)
	}
	if got := s.fleetView().Status.LeasedRate; got != 200 {
		t.Errorf("leased after the refusal = %v, want 200", got)
	}
	if code := heartbeat(t, s, "extra"); code != http.StatusGone {
		t.Errorf("refused worker's heartbeat = %d, want 410", code)
	}
	clk.Advance(4 * time.Second)
	if code := heartbeat(t, s, "w1"); code != http.StatusOK {
		t.Fatalf("w1 heartbeat = %d", code)
	}
	clk.Advance(2 * time.Second) // w0 lapses, w1 lives
	if reply, code, reason := register(t, s, "extra"); code != http.StatusOK || reply.Rate != 100 {
		t.Errorf("register into the freed slot = %d %s, slice %v; want 200 with 100", code, reason, reply.Rate)
	}
	if _, code, _ := register(t, s, "w2"); code != http.StatusConflict {
		t.Errorf("register into the refilled fleet = %d, want 409", code)
	}
}

// TestLeaseUnlimitedRate: a campaign with no rate, zero or negative,
// leases zero-rate slices and reports rate 0 everywhere.
func TestLeaseUnlimitedRate(t *testing.T) {
	for _, rate := range []float64{0, -5} {
		t.Run(fmt.Sprint(rate), func(t *testing.T) {
			s, _ := leaseServer(t, Config{MaxWorkers: 2, Rate: rate})
			reply, code, _ := register(t, s, "w0")
			st := s.fleetView()
			if code != http.StatusOK || reply.Rate != 0 || st.Status.Rate != 0 || st.Status.LeasedRate != 0 || st.Status.QuotaUtilization != 0 {
				t.Errorf("register %d rate %v, status %+v", code, reply.Rate, st.Status)
			}
			if len(st.Workers) != 1 || st.Workers[0].Lease == nil || st.Workers[0].Lease.Rate != 0 {
				t.Errorf("worker rows = %+v, want w0 holding a zero-rate lease", st.Workers)
			}
		})
	}
}

// TestLeaseReRegisterReplacesOwn: a worker registering again under its
// own ID swaps its lease for a fresh one; it is not counted twice.
func TestLeaseReRegisterReplacesOwn(t *testing.T) {
	s, clk := leaseServer(t, Config{MaxWorkers: 1, Rate: 100})
	if _, code, reason := register(t, s, "w0"); code != http.StatusOK {
		t.Fatalf("register = %d %s", code, reason)
	}
	clk.Advance(4 * time.Second)
	if _, code, reason := register(t, s, "w0"); code != http.StatusOK {
		t.Fatalf("re-register = %d %s", code, reason)
	}
	if got := s.fleetView().Status.LeasedRate; got != 100 {
		t.Errorf("leased = %v after re-register, want 100", got)
	}
	if _, code, _ := register(t, s, "w1"); code != http.StatusConflict {
		t.Errorf("second worker register = %d, want 409", code)
	}
	// The fresh lease runs a whole TTL from the re-register.
	clk.Advance(4 * time.Second)
	if code := heartbeat(t, s, "w0"); code != http.StatusOK {
		t.Errorf("heartbeat inside the fresh lease = %d, want 200", code)
	}
}

// TestLeaseExpiry: a live lease keeps a replacement out. One TTL
// without renewal lapses it: its slice goes to the replacement, and
// the lapsed worker's heartbeat and /next get 410.
func TestLeaseExpiry(t *testing.T) {
	s, clk := leaseServer(t, Config{MaxWorkers: 1, Rate: 250, LeaseTTL: 10 * time.Second})
	if _, code, reason := register(t, s, "w1"); code != http.StatusOK {
		t.Fatalf("register = %d %s", code, reason)
	}
	if rows := s.fleetView().Workers; len(rows) != 1 || rows[0].Lease == nil || rows[0].Lease.ExpiresInMS != 10000 {
		t.Errorf("rows = %+v, want w1's lease due in 10000 ms", rows)
	}
	if _, code, _ := register(t, s, "w2"); code != http.StatusConflict {
		t.Fatalf("register beside a live lease = %d, want 409", code)
	}
	clk.Advance(10*time.Second + time.Millisecond)
	if reply, code, reason := register(t, s, "w2"); code != http.StatusOK || reply.Rate != 250 {
		t.Fatalf("register after the expiry = %d %s, slice %v; want 200 with 250", code, reason, reply.Rate)
	}
	if got := leaseHolders(s); len(got) != 1 || got[0] != "w2" {
		t.Errorf("holders = %v, want [w2]", got)
	}
	if got := s.fleetView().Status.LeasedRate; got != 250 {
		t.Errorf("leased = %v, want the replacement's 250", got)
	}
	if code := heartbeat(t, s, "w1"); code != http.StatusGone {
		t.Errorf("lapsed heartbeat = %d, want 410", code)
	}
	if _, code := next(t, s, "w1"); code != http.StatusGone {
		t.Errorf("lapsed next = %d, want 410", code)
	}
}

// TestLeaseRenewExtendsLease: heartbeats and /next inside the TTL keep
// a lease alive indefinitely, each pushing its expiry a whole TTL out;
// one missed TTL loses it.
func TestLeaseRenewExtendsLease(t *testing.T) {
	s, clk := leaseServer(t, Config{MaxWorkers: 1, Rate: 100, LeaseTTL: 10 * time.Second})
	if _, code, reason := register(t, s, "w0"); code != http.StatusOK {
		t.Fatalf("register = %d %s", code, reason)
	}
	for i := 0; i < 5; i++ {
		clk.Advance(8 * time.Second)
		if i%2 == 0 {
			if code := heartbeat(t, s, "w0"); code != http.StatusOK {
				t.Fatalf("heartbeat #%d = %d", i, code)
			}
		} else if a, code := next(t, s, "w0"); code != http.StatusOK || a.State != StateWait {
			t.Fatalf("next #%d = %d %+v", i, code, a)
		}
		if rows := s.fleetView().Workers; len(rows) != 1 || rows[0].Lease == nil || rows[0].Lease.ExpiresInMS != 10000 {
			t.Errorf("renewal #%d: rows = %+v, want the lease due in 10000 ms", i, rows)
		}
	}
	if got := s.fleetView().Status.LeasedRate; got != 100 {
		t.Errorf("leased = %v, want 100", got)
	}
	clk.Advance(10*time.Second + time.Millisecond)
	if code := heartbeat(t, s, "w0"); code != http.StatusGone {
		t.Errorf("heartbeat after a missed TTL = %d, want 410", code)
	}
}

// TestLeaseGone410: a heartbeat or /next without a live lease — never
// registered, or expired — is answered 410, and the worker can then
// register again.
func TestLeaseGone410(t *testing.T) {
	s, clk := leaseServer(t, Config{LeaseTTL: 10 * time.Second})
	if code := heartbeat(t, s, "ghost"); code != http.StatusGone {
		t.Errorf("unregistered heartbeat = %d, want 410", code)
	}
	if _, code := next(t, s, "ghost"); code != http.StatusGone {
		t.Errorf("unregistered next = %d, want 410", code)
	}
	if _, code, reason := register(t, s, "w0"); code != http.StatusOK {
		t.Fatalf("register = %d %s", code, reason)
	}
	clk.Advance(10*time.Second + time.Millisecond)
	if code := heartbeat(t, s, "w0"); code != http.StatusGone {
		t.Errorf("heartbeat after expiry = %d, want 410", code)
	}
	if _, code := next(t, s, "w0"); code != http.StatusGone {
		t.Errorf("next after expiry = %d, want 410", code)
	}
	if _, code, reason := register(t, s, "w0"); code != http.StatusOK {
		t.Fatalf("register after 410 = %d %s", code, reason)
	}
	if code := heartbeat(t, s, "w0"); code != http.StatusOK {
		t.Errorf("heartbeat on the new lease = %d, want 200", code)
	}
}

// TestLeaseReapReportsDeadLeases: the reaper leaves live leases alone,
// records the deaths in worker order and keeps the survivor, and a
// second reap finds nothing more.
func TestLeaseReapReportsDeadLeases(t *testing.T) {
	s, clk := leaseServer(t, Config{MaxWorkers: 3, Rate: 300})
	for _, id := range []string{"w3", "w1", "w2"} {
		if _, code, reason := register(t, s, id); code != http.StatusOK {
			t.Fatalf("register %s = %d %s", id, code, reason)
		}
	}
	reap(s)
	checkDeaths(t, s, 0, 0, "", nil)
	clk.Advance(4 * time.Second)
	if code := heartbeat(t, s, "w2"); code != http.StatusOK {
		t.Fatalf("w2 heartbeat = %d", code)
	}
	clk.Advance(2 * time.Second) // w1 and w3 expire, w2 lives
	reap(s)
	checkDeaths(t, s, 2, 0, "w1 w3", nil)
	if got := leaseHolders(s); len(got) != 1 || got[0] != "w2" {
		t.Errorf("lease holders = %v, want [w2]", got)
	}
	if got := s.fleetView().Status.LeasedRate; got != 100 {
		t.Errorf("leased = %v, want the survivor's 100", got)
	}
	reap(s)
	checkDeaths(t, s, 2, 0, "w1 w3", nil)
}

// TestLeaseReapSurvivesSideEffectReaps replays the order that once
// lost a death and left a shard assigned forever: a survivor's
// heartbeat observes the victim's expiry before the reaper's tick and
// DrainWorkers' poll do. The death is still counted, the victim's
// shard re-queued and the death recorded, exactly once.
func TestLeaseReapSurvivesSideEffectReaps(t *testing.T) {
	s, clk := leaseServer(t, Config{MaxWorkers: 2, Rate: 200})
	for _, id := range []string{"victim", "survivor"} {
		if _, code, reason := register(t, s, id); code != http.StatusOK {
			t.Fatalf("register %s = %d %s", id, code, reason)
		}
	}
	openRound(s)
	if a, code := next(t, s, "victim"); code != http.StatusOK || a.State != StateRun || a.Shard != 0 {
		t.Fatalf("victim next = %d %+v, want shard 0", code, a)
	}
	if a, code := next(t, s, "survivor"); code != http.StatusOK || a.State != StateRun || a.Shard != 1 {
		t.Fatalf("survivor next = %d %+v, want shard 1", code, a)
	}
	clk.Advance(4 * time.Second)
	if code := heartbeat(t, s, "survivor"); code != http.StatusOK {
		t.Fatalf("survivor heartbeat = %d", code)
	}
	clk.Advance(2 * time.Second) // the victim expires, the survivor lives

	if code := heartbeat(t, s, "survivor"); code != http.StatusOK {
		t.Fatalf("survivor heartbeat past the victim's expiry = %d", code)
	}
	checkDeaths(t, s, 1, 1, "victim", []int{0})
	if code := heartbeat(t, s, "victim"); code != http.StatusGone {
		t.Errorf("victim heartbeat = %d, want 410", code)
	}
	reap(s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_ = s.DrainWorkers(ctx)
	checkDeaths(t, s, 1, 1, "victim", []int{0})
	if got := leaseHolders(s); len(got) != 1 || got[0] != "survivor" {
		t.Errorf("lease holders = %v, want [survivor]", got)
	}
}

// TestLeaseReacquireScrubsDeath: a worker whose lease lapsed and who
// registers again under its own ID dies once, at the register that
// observes the expiry. The reaper does not report it dead a second
// time, nor take its fresh lease or the shard it is handed next.
func TestLeaseReacquireScrubsDeath(t *testing.T) {
	s, clk := leaseServer(t, Config{MaxWorkers: 2, Rate: 200})
	if _, code, reason := register(t, s, "phoenix"); code != http.StatusOK {
		t.Fatalf("register = %d %s", code, reason)
	}
	openRound(s)
	if a, code := next(t, s, "phoenix"); code != http.StatusOK || a.State != StateRun || a.Shard != 0 {
		t.Fatalf("next = %d %+v, want shard 0", code, a)
	}
	clk.Advance(6 * time.Second)
	if _, code, reason := register(t, s, "phoenix"); code != http.StatusOK {
		t.Fatalf("re-register = %d %s", code, reason)
	}
	checkDeaths(t, s, 1, 1, "phoenix", []int{1, 0})
	if a, code := next(t, s, "phoenix"); code != http.StatusOK || a.State != StateRun || a.Shard != 1 {
		t.Fatalf("next after the rejoin = %d %+v, want shard 1", code, a)
	}
	reap(s)
	checkDeaths(t, s, 1, 1, "phoenix", []int{0})
	if got := leaseHolders(s); len(got) != 1 || got[0] != "phoenix" {
		t.Errorf("lease holders = %v, want [phoenix]", got)
	}
}

// TestLeaseDoneReleases: StateDone releases the worker's lease at
// once, so DrainWorkers returns without waiting out the TTL.
func TestLeaseDoneReleases(t *testing.T) {
	s, _ := leaseServer(t, Config{Rate: 80, MaxWorkers: 2})
	for _, id := range []string{"w0", "w1"} {
		if _, code, reason := register(t, s, id); code != http.StatusOK {
			t.Fatalf("register %s = %d %s", id, code, reason)
		}
	}
	s.mu.Lock()
	s.campaignDone = true
	s.mu.Unlock()
	if a, code := next(t, s, "w0"); code != http.StatusOK || a.State != StateDone {
		t.Fatalf("next = %d %+v, want done", code, a)
	}
	if got := leaseHolders(s); len(got) != 1 || got[0] != "w1" {
		t.Errorf("holders after w0's done = %v, want [w1]", got)
	}
	if got := s.fleetView().Status.LeasedRate; got != 40 {
		t.Errorf("leased after w0's done = %v, want 40", got)
	}
	if _, code := next(t, s, "w0"); code != http.StatusGone {
		t.Errorf("next on a released lease = %d, want 410", code)
	}
	if a, code := next(t, s, "w1"); code != http.StatusOK || a.State != StateDone {
		t.Fatalf("next = %d %+v, want done", code, a)
	}
	// The fake clock never moves: only the releases can empty the table.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.DrainWorkers(ctx); err != nil {
		t.Errorf("DrainWorkers = %v with every lease released", err)
	}
}

// TestLeaseHammer races registers, renewals and expiries: live leases
// never exceed MaxWorkers and the leased rate never exceeds the
// budget.
func TestLeaseHammer(t *testing.T) {
	const maxWorkers, rate = 3, 250.0
	s, clk := leaseServer(t, Config{MaxWorkers: maxWorkers, Rate: rate})
	checkInvariant := func() {
		st := s.fleetView()
		held := 0
		for _, wv := range st.Workers {
			if wv.Lease != nil {
				held++
			}
		}
		if held > maxWorkers || st.Status.LeasedRate > rate*(1+1e-9) {
			t.Errorf("%d leases, %v leased: over the cap of %d, %v", held, st.Status.LeasedRate, maxWorkers, rate)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < 100; i++ {
				switch (w + i) % 4 {
				case 0, 1:
					if _, code, reason := register(t, s, id); code != http.StatusOK && code != http.StatusConflict {
						t.Errorf("register %s = %d %s", id, code, reason)
					}
				case 2:
					if code := heartbeat(t, s, id); code != http.StatusOK && code != http.StatusGone {
						t.Errorf("heartbeat %s = %d", id, code)
					}
				case 3:
					if w%3 == 0 {
						clk.Advance(3 * time.Second)
					}
				}
				checkInvariant()
			}
		}(w)
	}
	wg.Wait()
	checkInvariant()
	// Nothing past due is left once a handler has run.
	clk.Advance(time.Hour)
	heartbeat(t, s, "w0")
	if got := leaseHolders(s); len(got) != 0 {
		t.Errorf("holders an hour later = %v, want none", got)
	}
	if s.cfg.Metrics.Counter("coord.leases_expired").Load() == 0 {
		t.Error("the hammer expired no lease")
	}
}
