package analysis

import (
	"context"
	"strings"
	"sync"
	"testing"

	"whowas/internal/blacklist"
	"whowas/internal/cloudapi"
	"whowas/internal/cloudsim"
	"whowas/internal/cluster"
	"whowas/internal/core"
)

// campaignFixture runs one reduced EC2 campaign shared by the
// integration tests: small cloud, 18 rounds across the full 93 days.
// campaignFeeds are the cloud's blacklist feeds.
var (
	campaignOnce  sync.Once
	campaignP     *core.Platform
	campaignFeeds *blacklist.Feeds
	campaignErr   error
)

func campaign(t *testing.T) *core.Platform {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign integration test skipped in -short mode")
	}
	campaignOnce.Do(func() {
		p, err := core.NewPlatform(cloudsim.DefaultEC2Config(1024, 91))
		if err != nil {
			campaignErr = err
			return
		}
		cfg := core.FastCampaign()
		// Reduced schedule: every 5 days, then daily over the last
		// three weeks (dense enough to observe type-2 flicker and
		// type-3 page rotation).
		var days []int
		for d := 0; d < 72; d += 5 {
			days = append(days, d)
		}
		for d := 72; d < 93; d++ {
			days = append(days, d)
		}
		cfg.RoundDays = days
		if err := p.RunCampaign(context.Background(), cfg); err != nil {
			campaignErr = err
			return
		}
		if err := p.RunClustering(cluster.Config{Threshold: 3}); err != nil {
			campaignErr = err
			return
		}
		campaignP, campaignFeeds = p, blacklist.BuildFeeds(cloudapi.Sim(p.Cloud))
	})
	if campaignErr != nil {
		t.Fatal(campaignErr)
	}
	return campaignP
}

func TestSafeBrowsingStudyIntegration(t *testing.T) {
	p := campaign(t)
	study := SafeBrowsing(p.Store, campaignFeeds.SafeBrowsing)
	if study.MaliciousIPs == 0 {
		t.Fatal("no malicious IPs found via Safe Browsing")
	}
	if study.MaliciousURLs == 0 {
		t.Error("no malicious URLs")
	}
	if study.MalwareIPs == 0 {
		t.Error("no malware IPs")
	}
	if study.MalwareIPs+study.PhishingIPs < study.MaliciousIPs {
		t.Errorf("kind counts %d+%d below total %d",
			study.MalwareIPs, study.PhishingIPs, study.MaliciousIPs)
	}
	// Figure 16 shape: malicious IPs are long-lived (paper: 62% > 7
	// days). With detection lag, demand a substantial long-lived share.
	if longLived := 1 - study.LifetimeAll.At(7); longLived < 0.3 {
		t.Errorf("share of malicious IPs living > 7 days = %.2f, want >= 0.3", longLived)
	}
	if out := study.Format("ec2"); !strings.Contains(out, "Figure 16") {
		t.Error("Format missing Figure 16")
	}
}

func TestVirusTotalStudyIntegration(t *testing.T) {
	p := campaign(t)
	months := DefaultMonths(p.Cloud.Days())
	study := VirusTotal(p.Store, campaignFeeds.VirusTotal, p.Clusters, p.Cloud.RegionOf, months, 2)
	if study.MaliciousIPs == 0 {
		t.Fatal("no VT malicious IPs")
	}
	// Region shape: us-east-1 dominates (Table 17).
	usEast := regionTotal(study.RegionMonth["us-east-1"])
	for r, m := range study.RegionMonth {
		if r != "us-east-1" && regionTotal(m) > usEast {
			t.Errorf("region %s (%d) outranks us-east-1 (%d)", r, regionTotal(m), usEast)
		}
	}
	// Table 18: file-hosting domains dominate.
	if len(study.TopDomains) == 0 {
		t.Fatal("no malicious domains")
	}
	foundDropbox := false
	for _, d := range study.TopDomains[:minInt(5, len(study.TopDomains))] {
		if strings.Contains(d.Domain, "dropbox") {
			foundDropbox = true
		}
	}
	if !foundDropbox {
		t.Errorf("dropbox not in top-5 domains: %+v", study.TopDomains[:minInt(5, len(study.TopDomains))])
	}
	// Behaviour types: steady type-1 pages always dominate; at the
	// reduced fixture scale, the flickering (2) and rotating (3)
	// behaviours require catching off-rounds, so demand at least one
	// of them combined (the full-scale bench observes all three).
	if study.TypeCounts[Type1] == 0 {
		t.Error("no type-1 IPs")
	}
	if study.TypeCounts[Type2]+study.TypeCounts[Type3] == 0 {
		t.Errorf("no type-2 or type-3 IPs: %+v", study.TypeCounts)
	}
	// Figure 19: type-1/3 detected faster than type 2 at the 3-day mark.
	if l1, l2 := study.LagCDF[Type1], study.LagCDF[Type2]; l1 != nil && l2 != nil && l1.N() > 3 && l2.N() > 3 {
		if l1.At(3) < l2.At(3) {
			t.Errorf("type-1 3-day detection %.2f below type-2 %.2f", l1.At(3), l2.At(3))
		}
	}
	if out := study.Format("ec2"); !strings.Contains(out, "Table 17") || !strings.Contains(out, "Table 18") {
		t.Error("Format missing tables")
	}
}

func TestClusterExpansionIntegration(t *testing.T) {
	p := campaign(t)
	months := DefaultMonths(p.Cloud.Days())
	study := VirusTotal(p.Store, campaignFeeds.VirusTotal, p.Clusters, p.Cloud.RegionOf, months, 2)
	if study.ClusteredIPs == 0 {
		t.Skip("no VT IPs landed in clusters")
	}
	// Expansion can be zero if all malicious clusters are singletons,
	// but across ~100 malicious services some have multiple IPs.
	if study.ExpandedIPs == 0 {
		t.Log("warning: no expanded IPs; malicious clusters all singleton in this sample")
	}
}

func TestUsageIntegrationShape(t *testing.T) {
	p := campaign(t)
	u := Usage(p.Store)
	frac := u.Responsive.Mean / float64(u.Probed)
	if frac < 0.19 || frac > 0.29 {
		t.Errorf("mean responsive fraction = %.3f, want ~0.237", frac)
	}
	availRatio := u.Available.Mean / u.Responsive.Mean
	if availRatio < 0.55 || availRatio > 0.82 {
		t.Errorf("available/responsive = %.3f, want ~0.68", availRatio)
	}
	if u.GrowthResp < 0 || u.GrowthResp > 0.10 {
		t.Errorf("responsive growth = %.3f, want ~0.033", u.GrowthResp)
	}
	mix := Ports(p.Store)
	if mix.SSHOnly < 0.15 || mix.SSHOnly > 0.36 {
		t.Errorf("SSH-only share = %.3f, want ~0.259", mix.SSHOnly)
	}
	stat := Statuses(p.Store)
	if stat.OK200 < 0.55 || stat.OK200 > 0.75 {
		t.Errorf("200 share = %.3f, want ~0.647", stat.OK200)
	}
	ct := ContentTypes(p.Store, 5)
	if ct[0].Type != "text/html" || ct[0].Share < 0.9 {
		t.Errorf("top content type = %+v", ct[0])
	}
}

func TestClusterStatsIntegrationShape(t *testing.T) {
	p := campaign(t)
	mix := Sizes(p.Clusters)
	if mix.Singleton < 0.6 || mix.Singleton > 0.9 {
		t.Errorf("singleton share = %.3f, want ~0.79", mix.Singleton)
	}
	up := IPUptimes(p.Clusters)
	if up.FullUptimeFrac < 0.5 {
		t.Errorf("full-uptime cluster share = %.3f, want ~0.75", up.FullUptimeFrac)
	}
	rows := TopClusters(p.Clusters, 10, p.Cloud.RegionOf)
	if len(rows) == 0 || rows[0].MeanIPs < 10 {
		t.Errorf("top cluster too small: %+v", rows)
	}
	// Census shape.
	c := Census(p.Store)
	if len(c.ServerFamilies) == 0 || c.ServerFamilies[0].Name != "Apache" {
		t.Errorf("top server family = %+v", c.ServerFamilies)
	}
	tr := Trackers(p.Store)
	if len(tr.Rows) == 0 || tr.Rows[0].Tracker != "google-analytics" {
		t.Errorf("top tracker = %+v", tr.Rows)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
