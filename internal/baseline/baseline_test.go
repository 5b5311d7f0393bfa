package baseline

import (
	"context"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/dnssim"
	"whowas/internal/ipaddr"
	"whowas/internal/ratelimit"
)

func testCloud(t testing.TB) *cloudsim.Cloud {
	t.Helper()
	c, err := cloudsim.New(cloudsim.DefaultEC2Config(512, 81))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSweepCoverageBelowDirect(t *testing.T) {
	cloud := testCloud(t)
	resolver := dnssim.NewResolver(cloud, 0)
	res, err := Sweep(context.Background(), resolver, 0,
		Config{Rate: 1e6, Clock: ratelimit.NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains == 0 || res.Resolved == 0 || res.ObservedIPs == 0 {
		t.Fatalf("empty sweep: %+v", res)
	}
	// Ground-truth direct web population on day 0.
	direct := 0
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		if cloud.StateAt(0, a).Web {
			direct++
		}
		return true
	})
	res.DirectWebIPs = direct
	cov := res.Coverage()
	// The paper's motivation: DNS interrogation sees strictly less
	// than direct probing (only registered domains, capped answers).
	if cov <= 0 || cov >= 1 {
		t.Errorf("coverage = %.2f, want in (0,1); observed=%d direct=%d", cov, res.ObservedIPs, direct)
	}
}

func TestSweepObservedIPsAreReal(t *testing.T) {
	cloud := testCloud(t)
	resolver := dnssim.NewResolver(cloud, 0)
	res, err := Sweep(context.Background(), resolver, 0,
		Config{Rate: 1e6, Clock: ratelimit.NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if res.ObservedIPs == 0 {
		t.Fatal("no IPs observed")
	}
	_ = res
}

func TestSeedShareReducesCoverage(t *testing.T) {
	cloud := testCloud(t)
	full, err := Sweep(context.Background(), dnssim.NewResolver(cloud, 0), 0,
		Config{Rate: 1e6, Clock: ratelimit.NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Sweep(context.Background(), dnssim.NewResolver(cloud, 0), 0,
		Config{Rate: 1e6, Clock: ratelimit.NewFakeClock(time.Unix(0, 0)), SeedShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if half.Domains >= full.Domains {
		t.Errorf("seed share did not reduce domains: %d vs %d", half.Domains, full.Domains)
	}
	if half.ObservedIPs >= full.ObservedIPs {
		t.Errorf("seed share did not reduce observed IPs: %d vs %d", half.ObservedIPs, full.ObservedIPs)
	}
}

func TestCoverageZeroWhenUnknownDirect(t *testing.T) {
	r := &Result{ObservedIPs: 10}
	if r.Coverage() != 0 {
		t.Error("coverage without direct count != 0")
	}
}

func TestSweepCancellation(t *testing.T) {
	cloud := testCloud(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, dnssim.NewResolver(cloud, 0), 0,
		Config{Rate: 1e6, Clock: ratelimit.NewFakeClock(time.Unix(0, 0))})
	if err == nil {
		t.Error("cancelled sweep succeeded")
	}
}
