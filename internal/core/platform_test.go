package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"whowas/internal/carto"
	"whowas/internal/cloudapi"
	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// smallCampaign runs a reduced but complete campaign (1:512 EC2 cloud;
// the full 51-round schedule, or 30 daily rounds under the race
// detector), shared across the package's tests — the
// campaign is immutable apart from the clustering/cartography labels,
// which only the dedicated tests touch.
var (
	smallOnce sync.Once
	smallP    *Platform
	smallErr  error
	// smallSchedule records the round schedule the fixture actually
	// ran; assertions derive round counts and sample indices from it.
	smallSchedule []int
)

func smallCampaign(t testing.TB) *Platform {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	smallOnce.Do(func() {
		p, err := NewPlatform(cloudapi.DefaultEC2Config(512, 61))
		if err != nil {
			smallErr = err
			return
		}
		cfg := FastCampaign()
		if raceDetectorOn {
			// The race detector effectively serializes this
			// channel-heavy pipeline (~6 s per round vs ~1 s); cap
			// the fixture at 30 daily rounds so the package fits the
			// default 10-minute test timeout. Every fixture-backed
			// assertion is schedule-derived, a ratio, or an
			// existence check, so fewer rounds stay valid.
			cfg.RoundDays = DefaultRoundSchedule(30)
		}
		smallSchedule = cfg.RoundDays
		if smallSchedule == nil {
			smallSchedule = DefaultRoundSchedule(p.Cloud.Days())
		}
		if err := p.RunCampaign(context.Background(), cfg); err != nil {
			smallErr = err
			return
		}
		smallP = p
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallP
}

func TestDefaultRoundSchedule(t *testing.T) {
	// The paper collected 51 rounds over the 93-day EC2 campaign.
	ec2 := DefaultRoundSchedule(93)
	if len(ec2) != 51 {
		t.Errorf("EC2 schedule = %d rounds, want 51", len(ec2))
	}
	if ec2[0] != 0 || ec2[len(ec2)-1] != 92 {
		t.Errorf("schedule endpoints = %d..%d", ec2[0], ec2[len(ec2)-1])
	}
	for i := 1; i < len(ec2); i++ {
		if ec2[i] <= ec2[i-1] {
			t.Fatal("schedule not increasing")
		}
		gap := ec2[i] - ec2[i-1]
		if gap != 1 && gap != 3 {
			t.Errorf("round gap %d at index %d", gap, i)
		}
	}
	az := DefaultRoundSchedule(62)
	if len(az) < 40 || len(az) > 46 {
		t.Errorf("Azure schedule = %d rounds, want ~41-46", len(az))
	}
	short := DefaultRoundSchedule(5)
	if len(short) != 5 {
		t.Errorf("short schedule = %v", short)
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	p := smallCampaign(t)
	var rounds []*store.Round
	p.Store.EachRound(func(r *store.Round) bool {
		rounds = append(rounds, r)
		return true
	})
	if len(rounds) != len(smallSchedule) {
		t.Fatalf("rounds = %d, want %d", len(rounds), len(smallSchedule))
	}
	total := float64(p.Cloud.Ranges().Total())
	for _, r := range []int{0, len(rounds) / 2, len(rounds) - 1} {
		round := rounds[r]
		if round.Probed != int64(total) {
			t.Errorf("round %d probed %d, want %d", r, round.Probed, int64(total))
		}
		respFrac := float64(round.Len()) / total
		if respFrac < 0.19 || respFrac > 0.29 {
			t.Errorf("round %d responsive fraction %.3f, want ~0.237", r, respFrac)
		}
		// Available fraction of responsive ~ 0.65-0.75 (Table 7 ratio).
		avail := 0
		round.Each(func(rec *store.Record) bool {
			if rec.Available() {
				avail++
			}
			return true
		})
		af := float64(avail) / float64(round.Len())
		if af < 0.55 || af > 0.82 {
			t.Errorf("round %d available/responsive = %.3f, want ~0.68", r, af)
		}
	}
}

func TestCampaignRecordsMatchGroundTruth(t *testing.T) {
	p := smallCampaign(t)
	sim := cloudapi.Sim(p.Cloud)
	round := p.Store.Round(0)
	day := round.Day
	checked := 0
	round.Each(func(rec *store.Record) bool {
		st := sim.StateAt(day, rec.IP)
		if !st.Bound {
			t.Errorf("record for unbound IP %s", rec.IP)
			return true
		}
		if rec.HTTPStatus == 200 && checked < 200 {
			prof, _, ok := sim.PageOn(day, rec.IP)
			if !ok {
				t.Errorf("200 record for IP %s with no ground-truth page", rec.IP)
				return true
			}
			if rec.Server != prof.Server {
				t.Errorf("IP %s: server %q, ground truth %q", rec.IP, rec.Server, prof.Server)
			}
			if rec.Title != prof.Title && prof.ContentType == "text/html" && !prof.DefaultPage {
				t.Errorf("IP %s: title %q, ground truth %q", rec.IP, rec.Title, prof.Title)
			}
			checked++
		}
		return true
	})
	if checked == 0 {
		t.Fatal("no 200 records verified")
	}
}

func TestHistoryLookup(t *testing.T) {
	p := smallCampaign(t)
	// Pick an IP bound for the whole campaign: a giant service member.
	var target ipaddr.Addr
	sim := cloudapi.Sim(p.Cloud)
	for _, svc := range sim.Services() {
		if svc.SizeOn(0) > 10 && svc.EndDay == p.Cloud.Days() && svc.DailyChurn < 0.01 {
			ips := sim.AssignedIPs(0, svc.ID)
			if len(ips) > 0 {
				target = ips[0]
				break
			}
		}
	}
	if target == 0 {
		t.Skip("no stable giant found")
	}
	hist := p.History(target)
	if len(hist) < 10 {
		t.Errorf("history of stable IP has %d records", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Round <= hist[i-1].Round {
			t.Fatal("history out of order")
		}
	}
}

func TestCartographyAccuracy(t *testing.T) {
	p := smallCampaign(t)
	if err := p.RunCartography(context.Background(), carto.Config{Rate: 1e6}); err != nil {
		t.Fatal(err)
	}
	// Compare the measured map against ground truth per /22.
	var correct, wrong int
	seen := map[ipaddr.Addr]bool{}
	p.Cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		p22 := a.Prefix22().Addr
		if seen[p22] {
			return true
		}
		seen[p22] = true
		if p.CartoMap.IsVPC(a) == p.Cloud.IsVPC(a) {
			correct++
		} else {
			wrong++
		}
		return true
	})
	// Sampling can miss sparse VPC prefixes; demand >= 90% accuracy.
	if float64(correct)/float64(correct+wrong) < 0.9 {
		t.Errorf("cartography accuracy %d/%d", correct, correct+wrong)
	}
	// Labels must be joined onto records.
	labeled := 0
	p.Store.Round(0).Each(func(rec *store.Record) bool {
		if rec.VPC {
			labeled++
		}
		return true
	})
	if labeled == 0 {
		t.Error("no records labeled VPC after cartography")
	}
}

func TestClusteringAttachment(t *testing.T) {
	p := smallCampaign(t)
	if err := p.RunClustering(cluster.Config{Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	res := p.Clusters
	if res.Final == 0 || res.TopLevel == 0 || res.SecondLevel < res.TopLevel {
		t.Fatalf("cluster counts: top=%d l2=%d final=%d", res.TopLevel, res.SecondLevel, res.Final)
	}
	// Most available records should land in a final cluster.
	var clustered, available int
	p.Store.EachRound(func(round *store.Round) bool {
		round.Each(func(rec *store.Record) bool {
			if rec.Available() {
				available++
				if rec.Cluster != 0 {
					clustered++
				}
			}
			return true
		})
		return true
	})
	if frac := float64(clustered) / float64(available); frac < 0.5 {
		t.Errorf("only %.2f of available records clustered", frac)
	}
}

func TestCampaignCancellation(t *testing.T) {
	p, err := NewPlatform(cloudapi.DefaultEC2Config(2048, 62))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.RunCampaign(ctx, FastCampaign()); err == nil {
		t.Error("cancelled campaign returned nil")
	}
}

func TestCampaignHonorsBlacklist(t *testing.T) {
	p, err := NewPlatform(cloudapi.DefaultEC2Config(2048, 63))
	if err != nil {
		t.Fatal(err)
	}
	bl := ipaddr.NewSet()
	for i := int64(0); i < 20; i++ {
		a, _ := p.Cloud.Ranges().AtIndex(i)
		bl.Add(a)
	}
	cfg := FastCampaign()
	cfg.Blacklist = bl
	cfg.RoundDays = []int{0, 3}
	if err := p.RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		a, _ := p.Cloud.Ranges().AtIndex(i)
		if len(p.History(a)) != 0 {
			t.Errorf("blacklisted IP %s has records", a)
		}
	}
}

func TestObserverCallback(t *testing.T) {
	p, err := NewPlatform(cloudapi.DefaultEC2Config(2048, 64))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastCampaign()
	cfg.RoundDays = []int{0, 5, 10}
	var reports []RoundReport
	cfg.Observer = func(r RoundReport) { reports = append(reports, r) }
	if err := p.RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 || reports[0].Day != 0 || reports[2].Day != 10 {
		t.Fatalf("observer reports = %+v", reports)
	}
	total := int64(p.Cloud.Ranges().Total())
	for i, r := range reports {
		if r.Round != i {
			t.Errorf("report %d: round = %d", i, r.Round)
		}
		if r.Probed != total {
			t.Errorf("report %d: probed = %d, want %d", i, r.Probed, total)
		}
		if r.Responsive <= 0 || r.Responsive > r.Probed {
			t.Errorf("report %d: responsive = %d", i, r.Responsive)
		}
		if r.Probes < r.Probed {
			t.Errorf("report %d: probes %d < probed IPs %d", i, r.Probes, r.Probed)
		}
		if r.Fetched <= 0 || r.Fetched > r.Responsive {
			t.Errorf("report %d: fetched = %d of %d responsive", i, r.Fetched, r.Responsive)
		}
		if r.Records != int64(p.Store.Round(i).Len()) {
			t.Errorf("report %d: records = %d, store has %d", i, r.Records, p.Store.Round(i).Len())
		}
		if r.BodyBytes <= 0 {
			t.Errorf("report %d: no body bytes collected", i)
		}
		if r.Scan <= 0 || r.Total < r.Scan {
			t.Errorf("report %d: stage durations scan=%v total=%v", i, r.Scan, r.Total)
		}
	}
	// The same reports accumulate on the platform, observer or not.
	if len(p.Reports) != 3 || !reflect.DeepEqual(p.Reports[1], reports[1]) {
		t.Errorf("platform reports = %+v", p.Reports)
	}
}

func TestCampaignMetricsRegistry(t *testing.T) {
	p, err := NewPlatform(cloudapi.DefaultEC2Config(2048, 66))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastCampaign()
	cfg.RoundDays = []int{0, 3}
	if err := p.RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	snap := p.Metrics.Snapshot()
	if snap.Counters["scanner.probes"] <= 0 {
		t.Errorf("scanner.probes = %d", snap.Counters["scanner.probes"])
	}
	if got, want := snap.Counters["scanner.probed_ips"], 2*int64(p.Cloud.Ranges().Total()); got != want {
		t.Errorf("scanner.probed_ips = %d, want %d", got, want)
	}
	if snap.Counters["fetcher.gets"] <= 0 || snap.Counters["fetcher.body_bytes"] <= 0 {
		t.Errorf("fetcher counters = %v", snap.Counters)
	}
	if snap.Counters["store.records"] <= 0 || snap.Counters["store.rounds"] != 2 {
		t.Errorf("store counters = %v", snap.Counters)
	}
	hist := snap.Histograms["fetcher.fetch_latency"]
	if hist.Count <= 0 || hist.P95MS < hist.P50MS || hist.P99MS < hist.P95MS {
		t.Errorf("fetch latency snapshot = %+v", hist)
	}
	if probeLat := snap.Histograms["scanner.probe_latency"]; probeLat.Count != snap.Counters["scanner.probes"] {
		t.Errorf("probe latency count %d != probes %d", probeLat.Count, snap.Counters["scanner.probes"])
	}
	// The round's stage timer is a histogram: one count per round, and
	// sum_ms is the rounds' exact total time.
	var total time.Duration
	for _, r := range p.Reports {
		total += r.Total
	}
	if h := snap.Histograms["core.round"]; h.Count != 2 || h.SumMS != float64(total)/float64(time.Millisecond) {
		t.Errorf("core.round stage = %+v, want 2 passes / %v", h, total)
	}

	// The full campaign report marshals and round-trips.
	var buf bytes.Buffer
	if err := p.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep CampaignReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(rep.Rounds) != 2 || rep.Rounds[0].Probed != int64(p.Cloud.Ranges().Total()) {
		t.Errorf("serialized rounds = %+v", rep.Rounds)
	}
	if rep.Metrics.Counters["scanner.probes"] != snap.Counters["scanner.probes"] {
		t.Error("serialized snapshot diverges from registry")
	}
}

func TestBadRoundDay(t *testing.T) {
	p, err := NewPlatform(cloudapi.DefaultEC2Config(2048, 65))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastCampaign()
	cfg.RoundDays = []int{0, 999}
	if err := p.RunCampaign(context.Background(), cfg); err == nil {
		t.Error("out-of-range round day accepted")
	}
}
