package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// syntheticStore builds a store shaped like a campaign's clustering
// input: services, each a level-1 key and a page fingerprint served
// from a few IPs (a few from a hundred or more), re-observed every
// round with occasional outages, page revisions of a bit, server
// upgrades (a new level-1 key that the merge rejoins), IPs released
// and reused by other services, a shared default page that many
// tenants serve with fingerprints of their own, and error pages.
func syntheticStore(tb testing.TB, seed int64, services, rounds int) *store.Store {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	type service struct {
		title, template, server, keywords, gaID string
		hash                                    simhash.Fingerprint
		ips                                     []ipaddr.Addr
	}
	next := ipaddr.MustParseAddr("10.0.0.0")
	var free []ipaddr.Addr
	alloc := func() ipaddr.Addr {
		if n := len(free); n > 0 && rng.Intn(2) == 0 {
			ip := free[n-1]
			free = free[:n-1]
			return ip
		}
		next++
		return next
	}
	servers := []string{"nginx/1.4.1", "Apache/2.2.25", "Apache/2.4.6", "Microsoft-IIS/7.5", ""}
	defaultPage := simhash.Fingerprint{Hi: rng.Uint32(), Lo: rng.Uint64()}
	svcs := make([]*service, services)
	for i := range svcs {
		s := &service{
			title:  fmt.Sprintf("Site %d", i),
			server: servers[rng.Intn(len(servers))],
			hash:   simhash.Fingerprint{Hi: rng.Uint32(), Lo: rng.Uint64()},
		}
		switch rng.Intn(30) {
		case 0:
			s.title, s.server = "Welcome-Apache", "Apache/2.2.25"
			s.hash = defaultPage.FlipBits(rng.Intn(96), rng.Intn(96))
		case 1:
			s.title = "404 Not Found"
		}
		if rng.Intn(3) == 0 {
			s.template = "WordPress 3.5.1"
		}
		if rng.Intn(2) == 0 {
			s.keywords = fmt.Sprintf("shop, service %d", i%97)
		}
		if rng.Intn(4) == 0 {
			s.gaID = fmt.Sprintf("UA-%d-%d", 1000+i/3, 1+i%3)
		}
		n := 1 + rng.Intn(4)
		if rng.Intn(90) == 0 {
			n = 20 + rng.Intn(150)
		}
		for ; n > 0; n-- {
			s.ips = append(s.ips, alloc())
		}
		svcs[i] = s
	}
	st := store.New("synthetic")
	for r := 0; r < rounds; r++ {
		if _, err := st.BeginRound(r * 2); err != nil {
			tb.Fatal(err)
		}
		var recs []*store.Record
		for _, s := range svcs {
			if rng.Intn(4) == 0 {
				s.hash = s.hash.FlipBits(rng.Intn(96))
			}
			if rng.Intn(40) == 0 && s.server != "" {
				s.server += ".1"
				s.hash = s.hash.FlipBits(rng.Intn(96))
			}
			if rng.Intn(20) == 0 {
				k := rng.Intn(len(s.ips))
				free = append(free, s.ips[k])
				s.ips[k] = alloc()
			}
			for _, ip := range s.ips {
				rec := &store.Record{
					IP: ip, OpenPorts: store.PortHTTP, HTTPStatus: 200,
					Title: s.title, Template: s.template, Server: s.server,
					Keywords: s.keywords, AnalyticsID: s.gaID,
					Simhash: s.hash, BodyLen: 100,
				}
				if rng.Intn(15) == 0 {
					rec.HTTPStatus = 0 // unavailable this round
				}
				recs = append(recs, rec)
			}
		}
		if err := st.PutBatch(recs); err != nil {
			tb.Fatal(err)
		}
		if err := st.EndRound(); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// BenchmarkRun clusters an 8-round synthetic store shaped like bench's
// analyse input (~45 k available points in ~1.9 k level-1 groups) at
// the tuned threshold. The first run labels the records, so every
// timed run is a steady-state pass that rewrites no round.
func BenchmarkRun(b *testing.B) {
	st := syntheticStore(b, 1, 1800, 8)
	res, err := Run(st, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchResult, err = Run(st, Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TopLevel), "groups")
}

var benchResult *Result
