package core

import (
	"context"
	"testing"

	"whowas/internal/cloudapi"
	"whowas/internal/ipaddr"
)

// TestPolitenessInvariants asserts the §7 ethics properties over a
// whole measurement round: at most 4 TCP connections per IP per day
// (the scanner's <=3 probes, plus the fetcher's robots.txt and page
// GETs sharing a connection unless the first dies), at most 2 HTTP
// requests per IP per day, and no contact with blacklisted IPs.
func TestPolitenessInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	p, err := NewPlatform(cloudapi.DefaultEC2Config(2048, 71))
	if err != nil {
		t.Fatal(err)
	}
	inp := p.Cloud.(*cloudapi.InProcess)
	inp.Network().RecordProbes(true)

	bl := ipaddr.NewSet()
	for i := int64(100); i < 110; i++ {
		a, _ := p.Cloud.Ranges().AtIndex(i)
		bl.Add(a)
	}
	cfg := FastCampaign()
	cfg.RoundDays = []int{0, 3}
	cfg.Blacklist = bl
	if err := p.RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	var probeViolations, requestViolations int
	for _, day := range cfg.RoundDays {
		p.Cloud.Ranges().Each(func(a ipaddr.Addr) bool {
			if n := inp.Network().ProbeCount(day, a); n > 4 {
				probeViolations++
			}
			if n := inp.Network().RequestCount(day, a); n > 2 {
				requestViolations++
			}
			if bl.Contains(a) && (inp.Network().ProbeCount(day, a) > 0 || inp.Network().RequestCount(day, a) > 0) {
				t.Errorf("blacklisted IP %s was contacted on day %d", a, day)
			}
			return true
		})
	}
	if probeViolations > 0 {
		t.Errorf("%d IP-days exceeded 4 connections", probeViolations)
	}
	if requestViolations > 0 {
		t.Errorf("%d IP-days exceeded 2 HTTP requests", requestViolations)
	}
}
