package carto

import (
	"context"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/dnssim"
	"whowas/internal/ipaddr"
	"whowas/internal/ratelimit"
	"whowas/internal/store"
)

func testCloud(t testing.TB) *cloudsim.Cloud {
	t.Helper()
	c, err := cloudsim.New(cloudsim.DefaultEC2Config(512, 71))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fastSweep(t testing.TB, cloud *cloudsim.Cloud, cfg Config) *Map {
	t.Helper()
	cfg.Rate = 1e6
	cfg.Clock = ratelimit.NewFakeClock(time.Unix(0, 0))
	resolver := dnssim.NewResolver(cloud, 0)
	m, err := Sweep(context.Background(), resolver, cloud.Ranges(), cloud.RegionOf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSweepAccuracy(t *testing.T) {
	cloud := testCloud(t)
	m := fastSweep(t, cloud, Config{})
	var correct, total int
	seen := map[ipaddr.Addr]bool{}
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		p22 := a.Prefix22().Addr
		if seen[p22] {
			return true
		}
		seen[p22] = true
		total++
		if m.IsVPC(a) == cloud.IsVPC(a) {
			correct++
		}
		return true
	})
	if frac := float64(correct) / float64(total); frac < 0.9 {
		t.Errorf("prefix label accuracy = %.2f (%d/%d)", frac, correct, total)
	}
}

func TestSweepNoFalseVPC(t *testing.T) {
	// A classic prefix must never be labeled VPC: the only way to get
	// a PublicA answer is a genuine VPC instance.
	cloud := testCloud(t)
	m := fastSweep(t, cloud, Config{})
	seen := map[ipaddr.Addr]bool{}
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		p22 := a.Prefix22().Addr
		if seen[p22] {
			return true
		}
		seen[p22] = true
		if m.IsVPC(a) && !cloud.IsVPC(a) {
			t.Errorf("classic prefix %s labeled VPC", a.Prefix22())
		}
		return true
	})
}

func TestCountByRegion(t *testing.T) {
	cloud := testCloud(t)
	m := fastSweep(t, cloud, Config{})
	// Table 2's left column: VPC /22s per region, tallied through IsVPC
	// at each prefix's network address.
	counts := map[string]int{}
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		if a == a.Prefix22().Addr && m.IsVPC(a) {
			counts[cloud.RegionOf(a)]++
		}
		return true
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != m.VPCPrefixCount() {
		t.Errorf("region counts sum %d != VPCPrefixCount %d", total, m.VPCPrefixCount())
	}
	if total == 0 {
		t.Error("no VPC prefixes found")
	}
}

func TestApplyLabelsRecords(t *testing.T) {
	cloud := testCloud(t)
	m := fastSweep(t, cloud, Config{})
	st := store.New("ec2")
	_, _ = st.BeginRound(0)
	// One record per distinct /22.
	seen := map[ipaddr.Addr]bool{}
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		p22 := a.Prefix22().Addr
		if seen[p22] {
			return true
		}
		seen[p22] = true
		_ = st.Put(&store.Record{IP: a, OpenPorts: store.PortHTTP})
		return true
	})
	_ = st.EndRound()
	if err := m.Apply(st); err != nil {
		t.Fatal(err)
	}
	var vpcRecs int
	st.Round(0).Each(func(rec *store.Record) bool {
		if rec.VPC != m.IsVPC(rec.IP) {
			t.Errorf("record %s label %v != map %v", rec.IP, rec.VPC, m.IsVPC(rec.IP))
		}
		if rec.VPC {
			vpcRecs++
		}
		return true
	})
	if vpcRecs == 0 {
		t.Error("no VPC-labeled records")
	}
}

func TestSweepCancellation(t *testing.T) {
	cloud := testCloud(t)
	resolver := dnssim.NewResolver(cloud, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, resolver, cloud.Ranges(), cloud.RegionOf, Config{Rate: 1e6, Clock: ratelimit.NewFakeClock(time.Unix(0, 0))})
	if err == nil {
		t.Error("cancelled sweep succeeded")
	}
}

func TestSweepRateLimited(t *testing.T) {
	cloud := testCloud(t)
	clock := ratelimit.NewFakeClock(time.Unix(0, 0))
	resolver := dnssim.NewResolver(cloud, 0)
	start := clock.Now()
	_, err := Sweep(context.Background(), resolver, cloud.Ranges(), cloud.RegionOf,
		Config{Rate: 100, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(start).Seconds()
	rate := float64(resolver.Queries) / elapsed
	if rate > 110 {
		t.Errorf("effective DNS query rate %.1f qps exceeds 100", rate)
	}
}

func TestNilMap(t *testing.T) {
	var m *Map
	if m.IsVPC(ipaddr.MustParseAddr("1.2.3.4")) {
		t.Error("nil map claims VPC")
	}
}
