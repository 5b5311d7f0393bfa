package analysis

import (
	"strings"
	"testing"

	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// mkCluster fabricates a cluster from (round, ips...) observations.
func mkCluster(id int64, obs map[int][]string) *cluster.Cluster {
	c := &cluster.Cluster{ID: id}
	for round, ips := range obs {
		for _, ip := range ips {
			c.Records = append(c.Records, &store.Record{
				IP:         ipaddr.MustParseAddr(ip),
				Round:      round,
				Day:        round * 2,
				OpenPorts:  store.PortHTTP,
				HTTPStatus: 200,
			})
		}
	}
	return c
}

func TestClusterUptimes(t *testing.T) {
	res := &cluster.Result{Clusters: []*cluster.Cluster{
		// Singleton, full uptime over rounds 0..3.
		mkCluster(1, map[int][]string{0: {"1.0.0.1"}, 1: {"1.0.0.1"}, 2: {"1.0.0.1"}, 3: {"1.0.0.1"}}),
		// Singleton with a gap: 3 of 4 spanned rounds = 75% uptime.
		mkCluster(2, map[int][]string{0: {"2.0.0.1"}, 2: {"2.0.0.1"}, 3: {"2.0.0.1"}}),
		// Size-2, full uptime.
		mkCluster(3, map[int][]string{0: {"3.0.0.1", "3.0.0.2"}, 1: {"3.0.0.1", "3.0.0.2"}}),
	}}
	stats := ClusterUptimes(res)
	if stats.SingletonFull != 0.5 {
		t.Errorf("SingletonFull = %v, want 0.5", stats.SingletonFull)
	}
	if stats.Singleton80 != 0.5 { // the gapped one is at 75%
		t.Errorf("Singleton80 = %v, want 0.5", stats.Singleton80)
	}
	if stats.Size2Full != 1.0 {
		t.Errorf("Size2Full = %v", stats.Size2Full)
	}
	if stats.LowUptimeFrac < 0.3 || stats.LowUptimeFrac > 0.34 { // 1 of 3 below 90%
		t.Errorf("LowUptimeFrac = %v, want 1/3", stats.LowUptimeFrac)
	}
	if out := stats.Format("x"); !strings.Contains(out, "singletons") {
		t.Error("Format output broken")
	}
}

func TestRegionChanges(t *testing.T) {
	regionOf := func(a ipaddr.Addr) string {
		if a>>24 == 9 {
			return "r2"
		}
		return "r1"
	}
	res := &cluster.Result{Clusters: []*cluster.Cluster{
		// Stays in r1 the whole time.
		mkCluster(1, map[int][]string{0: {"1.0.0.1"}, 1: {"1.0.0.1"}, 2: {"1.0.0.1"}, 3: {"1.0.0.1"}}),
		// Adds r2 in the second half (the split point is round 2, so
		// only round 3 counts as "late").
		mkCluster(2, map[int][]string{0: {"2.0.0.1"}, 1: {"2.0.0.1"}, 2: {"2.0.0.1"}, 3: {"2.0.0.1", "9.0.0.2"}}),
	}}
	stats := RegionChanges(res, regionOf)
	if stats.Total != 2 {
		t.Fatalf("Total = %d", stats.Total)
	}
	if stats.Same != 0.5 || stats.PlusOne != 0.5 {
		t.Errorf("stats = %+v", stats)
	}
	if RegionChanges(res, nil).Total != 0 {
		t.Error("nil regionOf should yield empty stats")
	}
}

func TestVPCTransitions(t *testing.T) {
	mk := func(id int64, vpcByRound map[int]bool) *cluster.Cluster {
		c := &cluster.Cluster{ID: id}
		for round := 0; round < 6; round++ {
			c.Records = append(c.Records, &store.Record{
				IP:         ipaddr.Addr(uint32(id)<<16 | uint32(round)),
				Round:      round,
				HTTPStatus: 200,
				OpenPorts:  store.PortHTTP,
				VPC:        vpcByRound[round],
			})
		}
		return c
	}
	res := &cluster.Result{Clusters: []*cluster.Cluster{
		mk(1, map[int]bool{0: false, 1: false, 2: false, 3: true, 4: true, 5: true}), // classic -> VPC
		mk(2, map[int]bool{0: true, 1: true, 2: true, 3: false, 4: false, 5: false}), // VPC -> classic
		mk(3, map[int]bool{0: false, 1: false, 2: false, 3: false, 4: false, 5: false}),
	}}
	stats := VPCTransitions(res)
	if stats.ClassicToVPC != 1 || stats.VPCToClassic != 1 {
		t.Errorf("transitions = %+v", stats)
	}
}

func TestLinchpins(t *testing.T) {
	s := store.New("test")
	_, _ = s.BeginRound(0)
	// A linchpin page carrying 25 flagged URLs over 3 domains.
	var links []string
	for i := 0; i < 25; i++ {
		links = append(links, "http://evil"+string(rune('a'+i%3))+".example/p"+string(rune('0'+i%10)))
	}
	_ = s.PutBatch([]*store.Record{{
		IP: ipaddr.MustParseAddr("1.0.0.1"), OpenPorts: store.PortHTTP,
		HTTPStatus: 200, Links: links, Simhash: simhash.Hash("linchpin"),
	}})
	// An ordinary page with two flagged URLs.
	_ = s.PutBatch([]*store.Record{{
		IP: ipaddr.MustParseAddr("1.0.0.2"), OpenPorts: store.PortHTTP,
		HTTPStatus: 200, Links: links[:2], Simhash: simhash.Hash("ordinary"),
	}})
	_ = s.EndRound()

	flagged := func(url string, day int) bool { return strings.Contains(url, "evil") }
	lps := Linchpins(s, 20, flagged)
	if len(lps) != 1 {
		t.Fatalf("linchpins = %+v", lps)
	}
	if lps[0].IP != ipaddr.MustParseAddr("1.0.0.1") || lps[0].MaxURLs != 25 || lps[0].Domains != 3 {
		t.Errorf("linchpin = %+v", lps[0])
	}
	if out := FormatLinchpins("x", lps); !strings.Contains(out, "1.0.0.1") {
		t.Error("FormatLinchpins output broken")
	}
}

func TestDomainOfHelper(t *testing.T) {
	cases := map[string]string{
		"http://a.example/p":      "a.example",
		"https://b.example:8080/": "b.example",
		"bare.example/path":       "bare.example",
		"":                        "",
	}
	for in, want := range cases {
		if got := domainOf(in); got != want {
			t.Errorf("domainOf(%q) = %q, want %q", in, got, want)
		}
	}
}
