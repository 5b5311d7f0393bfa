package core

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/faults"
	"whowas/internal/ipaddr"
	"whowas/internal/scanner"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// quickConfig is a fast fault-free campaign over the two-region chaos
// cloud, the substrate for the pipeline tests below.
func quickConfig(days []int) CampaignConfig {
	cfg := chaosCampaignConfig(nil, 0)
	cfg.RoundDays = days
	return cfg
}

func runQuick(t *testing.T, cfg CampaignConfig) chaosOutcome {
	t.Helper()
	p, err := NewPlatform(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := p.RunCampaign(ctx, cfg); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	digest, err := p.Store.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return chaosOutcome{digest: digest, reports: p.Reports, store: p.Store, p: p}
}

// TestPipelineShardDigestIdentity is the sharding correctness oracle:
// the same campaign run unsharded, with one lane per region, and with
// a clamped oversized shard count must produce byte-identical store
// digests and identical (timing-stripped) reports. Shard maps are
// merged and IP-sorted at round finalize, so the digest must not see
// the lane layout at all.
func TestPipelineShardDigestIdentity(t *testing.T) {
	days := []int{0, 2, 4}
	base := runQuick(t, quickConfig(days))
	baseR := deterministicReports(base.reports)
	for _, shards := range []int{0, 2, 7} {
		cfg := quickConfig(days)
		cfg.PipelineShards = shards
		got := runQuick(t, cfg)
		if got.digest != base.digest {
			t.Errorf("shards=%d digest %s, unsharded %s", shards, got.digest, base.digest)
		}
		gotR := deterministicReports(got.reports)
		if !reflect.DeepEqual(baseR, gotR) {
			t.Errorf("shards=%d reports diverged from unsharded run", shards)
		}
	}
	// The unsharded round still breaks the report down by region.
	for i, r := range base.reports {
		if len(r.Regions) != 2 {
			t.Fatalf("round %d: %d region reports, want 2", i, len(r.Regions))
		}
		var probed, records int64
		for _, reg := range r.Regions {
			if reg.Degraded {
				t.Errorf("round %d region %s degraded in a healthy campaign", i, reg.Region)
			}
			probed += reg.Probed
			records += reg.Records
		}
		if probed != r.Probed || records != r.Records {
			t.Errorf("round %d: region sums probed=%d records=%d, round %d/%d",
				i, probed, records, r.Probed, r.Records)
		}
	}
}

// assertUnwound fails the test unless the goroutine count returns to
// (about) what it was before a lane or round ran: every stage goroutine
// must unwind, given a moment for the unblocked pools to exit.
func assertUnwound(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+3 {
		t.Errorf("%d goroutines after the run, %d before: a lane leaked", g, before)
	}
}

// TestRoundStorePutFailure is the goroutine-leak regression test: a
// failing lane hand-off must abort the round, propagate the error, and
// unwind every lane goroutine — the sibling lane's included (the
// pre-pipeline collector returned without draining the page channel,
// leaving the fetcher and scanner pools blocked forever). East is
// blacked out in hold mode, so its lane is minutes from done when
// south's hand-off fails: only cancellation ends it in time. The store
// must stay usable afterwards.
func TestRoundStorePutFailure(t *testing.T) {
	p, err := NewPlatform(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("store full")
	var handOffs atomic.Int64
	p.laneHook = func(*ShardResult) error {
		handOffs.Add(1)
		return errBoom
	}
	cfg := quickConfig([]int{0})
	cfg.Faults = &faults.Scenario{Name: "east-held", Seed: 1,
		Episodes: []faults.Episode{faults.Blackout("east", 0, 0, true)}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	before := runtime.NumGoroutine()
	start := time.Now()
	err = p.RunCampaign(ctx, cfg)
	if !errors.Is(err, errBoom) {
		t.Fatalf("campaign error = %v, want %v", err, errBoom)
	}
	if n, took := handOffs.Load(), time.Since(start); n != 1 || took > 30*time.Second {
		t.Errorf("%d lane hand-offs in %v: south's failure did not cancel the held east lane", n, took)
	}
	assertUnwound(t, before)
	// The failed round was aborted, not left open: no round landed,
	// the store digests, and a rerun on the same platform succeeds.
	if n := p.Store.NumRounds(); n != 0 {
		t.Errorf("store has %d rounds after aborted round, want 0", n)
	}
	if _, err := p.Store.Digest(); err != nil {
		t.Errorf("store digest after aborted round: %v", err)
	}
	p.laneHook = nil
	if err := p.RunCampaign(context.Background(), quickConfig([]int{0})); err != nil {
		t.Fatalf("campaign after aborted round: %v", err)
	}
	if n := p.Store.NumRounds(); n != 1 {
		t.Errorf("store has %d rounds after recovery campaign, want 1", n)
	}
}

// cancelOnDial is a cloud that cancels the campaign at the nth dial of
// the given day — from inside the round, with every lane live.
type cancelOnDial struct {
	cloudapi.Cloud
	day    int
	nth    int64
	dials  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelOnDial) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if c.Day() == c.day && c.dials.Add(1) == c.nth {
		c.cancel()
	}
	return c.Cloud.DialContext(ctx, network, address)
}

// TestCampaignCancelMidRound cancels the campaign context from inside
// round 1's scan: the campaign must return the cancellation as a
// failure (not a degraded round), unwind every lane, abort the
// in-flight round, and leave round 0 finalized and digestable.
func TestCampaignCancelMidRound(t *testing.T) {
	inner, err := cloudapi.NewInProcess(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewPlatformCloud(&cancelOnDial{Cloud: inner, day: 2, nth: 500, cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	err = p.RunCampaign(ctx, quickConfig([]int{0, 2}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign error = %v, want context.Canceled", err)
	}
	assertUnwound(t, before)
	if len(p.Reports) != 1 {
		t.Errorf("%d round reports, want only round 0's", len(p.Reports))
	}
	if n := p.Store.NumRounds(); n != 1 {
		t.Fatalf("store has %d rounds, want round 0 only", n)
	}
	if p.Store.Round(0).Len() == 0 {
		t.Error("round 0 lost its records")
	}
	if _, err := p.Store.Digest(); err != nil {
		t.Errorf("store digest after mid-round cancel: %v", err)
	}
}

// TestRunLane drives the lane body directly, both chaos-cloud regions
// in one lane under a parent span: what it returns when it runs clean,
// when its RoundTimeout fires under a live caller, and when the caller
// gives up mid-lane — and that every stage goroutine is gone afterwards
// in each case (none parked on a full channel).
func TestRunLane(t *testing.T) {
	regions := []string{"east", "south"}
	oneLane := quickConfig([]int{0})
	oneLane.PipelineShards = 1
	campaign := runQuick(t, oneLane)

	type outcome struct {
		p      *Platform
		res    *ShardResult
		err    error
		stages map[string]trace.SpanSnapshot // the parent span's children, by name
	}
	cases := []struct {
		name     string
		faults   *faults.Scenario
		timeout  time.Duration
		cancelAt int64 // cancel the caller's context at this dial; 0 = never
		check    func(t *testing.T, o outcome)
	}{
		{name: "clean", check: func(t *testing.T, o outcome) {
			if o.err != nil || o.res.Degraded {
				t.Fatalf("clean lane: err %v, degraded %v", o.err, o.res != nil && o.res.Degraded)
			}
			// The lane's result, finished as a round, is the one-lane
			// campaign's round.
			if _, err := o.p.Store.BeginRound(0); err != nil {
				t.Fatal(err)
			}
			if err := o.p.Store.PutBatch(o.res.Records); err != nil {
				t.Fatal(err)
			}
			if _, err := FinishRound(o.p.Store, [][]string{regions}, []*ShardResult{o.res}, false); err != nil {
				t.Fatal(err)
			}
			if digest, err := o.p.Store.Digest(); err != nil || digest != campaign.digest {
				t.Errorf("lane digest %s (err %v), one-lane campaign %s", digest, err, campaign.digest)
			}
			items := strconv.Itoa(len(o.res.Records))
			snap := o.p.Metrics.Snapshot()
			for _, name := range []string{"scan", "fetch", "featurize"} {
				sp, ok := o.stages[name]
				if !ok || sp.Attr("regions") != "east,south" || sp.Attr("error") != "" {
					t.Errorf("stage span %q under the parent: %+v (found %v)", name, sp, ok)
				}
				if name != "scan" && sp.Attr("items") != items {
					t.Errorf("%s span items = %q, want %s", name, sp.Attr("items"), items)
				}
				if _, ok := snap.Histograms["pipeline."+name]; !ok {
					t.Errorf("no pipeline.%s stage timer", name)
				}
			}
			if got := snap.Counters["pipeline.fetch.items"]; got != int64(len(o.res.Records)) {
				t.Errorf("pipeline.fetch.items = %d, want %d", got, len(o.res.Records))
			}
			if o.res.Scan <= 0 || o.res.Total < o.res.Scan {
				t.Errorf("lane timings scan %v total %v", o.res.Scan, o.res.Total)
			}
		}},
		{name: "deadline-degrades", timeout: 5 * time.Second,
			faults: &faults.Scenario{Name: "south-held", Seed: 1,
				Episodes: []faults.Episode{faults.Blackout("south", 0, 0, true)}},
			check: func(t *testing.T, o outcome) {
				if o.err != nil || !o.res.Degraded {
					t.Fatalf("deadline under a live caller: err %v, want a degraded result", o.err)
				}
				east, south := o.res.Regions[0], o.res.Regions[1]
				if !east.ScanDone || east.Records == 0 || int64(len(o.res.Records)) != east.Records {
					t.Errorf("east = %+v with %d records kept, want its completed scan's records", east, len(o.res.Records))
				}
				if south.ScanDone || south.Records != 0 {
					t.Errorf("south = %+v, want an unfinished scan and no records", south)
				}
				if got := o.stages["scan"].Attr("error"); got != "deadline" {
					t.Errorf("scan span error = %q, want deadline", got)
				}
			}},
		{name: "caller-cancels", cancelAt: 500, check: func(t *testing.T, o outcome) {
			if !errors.Is(o.err, context.Canceled) || o.res != nil {
				t.Errorf("cancelled caller: result %v, err %v, want no result and context.Canceled", o.res, o.err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := cloudapi.NewInProcess(chaosCloudConfig())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p, err := NewPlatformCloud(&cancelOnDial{Cloud: inner, nth: tc.cancelAt, cancel: cancel})
			if err != nil {
				t.Fatal(err)
			}
			p.Tracer = trace.New(trace.Config{SamplePerMille: -1})
			cfg := quickConfig(nil)
			cfg.Faults, cfg.RoundTimeout = tc.faults, tc.timeout
			runner, err := NewShardRunner(p.Cloud, withPlatformDefaults(p, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Cloud.SetDay(ctx, 0); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			parent := p.Tracer.Start("round", nil)
			o := outcome{p: p, stages: map[string]trace.SpanSnapshot{}}
			o.res, o.err = runner.runLane(trace.NewContext(ctx, parent), regions)
			runner.CloseIdle()
			for _, sp := range p.Tracer.Slowest(16) {
				if sp.Parent == parent.ID() {
					o.stages[sp.Name] = sp
				}
			}
			tc.check(t, o)
			assertUnwound(t, before)
		})
	}
}

// TestSplitRegions pins the lane layout: regions come out in
// address-range order, and shard counts clamp to [1, regions].
func TestSplitRegions(t *testing.T) {
	p, err := NewPlatform(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	regions, err := splitRegions(p.Cloud.Ranges(), p.Cloud.RegionOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 || regions[0].name != "east" || regions[1].name != "south" {
		t.Fatalf("splitRegions = %+v, want [east south]", regions)
	}
	var total int64
	for _, r := range regions {
		total += int64(r.ranges.Total())
	}
	if total != int64(p.Cloud.Ranges().Total()) {
		t.Errorf("region ranges cover %d IPs, cloud has %d", total, p.Cloud.Ranges().Total())
	}
	names, err := CloudRegionNames(p.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ shards, lanes int }{
		{0, 2}, {1, 1}, {2, 2}, {9, 2},
	} {
		if got := len(ShardLayout(names, tc.shards)); got != tc.lanes {
			t.Errorf("shards=%d: %d lanes, want %d", tc.shards, got, tc.lanes)
		}
	}
}

// finishFixture is one FinishRound call's inputs over a five-region
// cloud: a store with a round open, the layout, and a full set of
// healthy shard results (each region probed 100, 10 responsive, one
// record) not yet handed to the store.
func finishFixture(t *testing.T, regions []string, shards int) (*store.Store, [][]string, []*ShardResult) {
	t.Helper()
	st := store.New("finish-test")
	if _, err := st.BeginRound(0); err != nil {
		t.Fatal(err)
	}
	layout := ShardLayout(regions, shards)
	results := make([]*ShardResult, len(layout))
	ip := ipaddr.MustParseAddr("54.0.0.1")
	for i, names := range layout {
		res := &ShardResult{
			Scan:  time.Duration(i+1) * time.Second,
			Total: time.Duration(i+2) * time.Second,
		}
		for _, name := range names {
			res.Regions = append(res.Regions, RegionResult{
				Region:   name,
				Stats:    scanner.Stats{Probed: 100, Probes: 300, Responsive: 10, Retries: 2, Skipped: 1},
				Fetched:  5,
				Records:  1,
				ScanDone: true,
			})
			res.Records = append(res.Records, &store.Record{IP: ip, OpenPorts: store.PortHTTP})
			ip++
		}
		results[i] = res
	}
	return st, layout, results
}

// TestFinishRound holds the one fold to its contract for every shape a
// caller can hand it: all shards present, a shard that never came back
// under a timed-out round, a degraded shard with one unfinished
// region — and, for every shard count, regions reported in the
// cloud's address-range order whatever the round-robin deal was.
func TestFinishRound(t *testing.T) {
	cfg := chaosCloudConfig()
	cfg.Regions = nil
	for _, name := range []string{"east", "south", "west", "north", "central"} {
		cfg.Regions = append(cfg.Regions, cloudapi.RegionConfig{Name: name, Prefixes22: 1})
	}
	cloud, err := cloudapi.NewInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := CloudRegionNames(cloud)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 5 {
		t.Fatalf("cloud has regions %v, want 5", regions)
	}

	for _, tc := range []struct {
		name     string
		shards   int
		timedOut bool
		// mutate edits the healthy results before the fold.
		mutate func(layout [][]string, results []*ShardResult)
		// degraded lists the regions that must report Degraded; empty
		// regions must report zero counts.
		degraded []string
		empty    []string
		scan     time.Duration
		drain    time.Duration
	}{
		{name: "all present, one shard", shards: 1, scan: 1 * time.Second, drain: 1 * time.Second},
		{name: "all present, two shards", shards: 2, scan: 2 * time.Second, drain: 1 * time.Second},
		{name: "all present, shard per region", shards: 5, scan: 5 * time.Second, drain: 1 * time.Second},
		{name: "all present, clamped", shards: 8, scan: 5 * time.Second, drain: 1 * time.Second},
		{
			name: "shard never submitted", shards: 2, timedOut: true,
			mutate: func(_ [][]string, results []*ShardResult) { results[1] = nil },
			// Shard 1 of 2 holds regions 1 and 3.
			degraded: []string{regions[1], regions[3]},
			empty:    []string{regions[1], regions[3]},
			scan:     1 * time.Second, drain: 1 * time.Second,
		},
		{
			name: "degraded shard, one region unscanned", shards: 2,
			mutate: func(_ [][]string, results []*ShardResult) {
				results[0].Degraded = true
				results[0].Regions[2].ScanDone = false
			},
			// Shard 0 of 2 holds regions 0, 2 and 4.
			degraded: []string{regions[4]},
			scan:     2 * time.Second, drain: 1 * time.Second,
		},
		{
			name: "drain clamps at zero", shards: 2,
			mutate: func(_ [][]string, results []*ShardResult) {
				results[0].Total, results[1].Total = time.Second, time.Second
			},
			scan: 2 * time.Second, drain: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, layout, results := finishFixture(t, regions, tc.shards)
			if tc.mutate != nil {
				tc.mutate(layout, results)
			}
			for _, res := range results {
				if res == nil {
					continue
				}
				if err := st.PutBatch(res.Records); err != nil {
					t.Fatal(err)
				}
			}
			report, err := FinishRound(st, layout, results, tc.timedOut)
			if err != nil {
				t.Fatal(err)
			}
			wantDegraded := tc.timedOut || len(tc.degraded) > 0
			if report.Degraded != wantDegraded {
				t.Errorf("report degraded = %v, want %v", report.Degraded, wantDegraded)
			}
			if report.Scan != tc.scan || report.Drain != tc.drain {
				t.Errorf("scan/drain = %v/%v, want %v/%v", report.Scan, report.Drain, tc.scan, tc.drain)
			}
			degraded := map[string]bool{}
			for _, name := range tc.degraded {
				degraded[name] = true
			}
			empty := map[string]bool{}
			for _, name := range tc.empty {
				empty[name] = true
			}
			if len(report.Regions) != len(regions) {
				t.Fatalf("%d region reports, want %d", len(report.Regions), len(regions))
			}
			var probed, records int64
			for i, reg := range report.Regions {
				if reg.Region != regions[i] {
					t.Errorf("region %d = %q, want %q (address-range order)", i, reg.Region, regions[i])
				}
				if reg.Degraded != degraded[reg.Region] {
					t.Errorf("region %s degraded = %v, want %v", reg.Region, reg.Degraded, degraded[reg.Region])
				}
				want := RegionReport{Region: reg.Region, Probed: 100, Skipped: 1, Responsive: 10, Fetched: 5, Records: 1}
				if empty[reg.Region] {
					want = RegionReport{Region: reg.Region}
				}
				want.Degraded = reg.Degraded
				if reg != want {
					t.Errorf("region report %+v, want %+v", reg, want)
				}
				probed += reg.Probed
				records += reg.Records
			}
			present := int64(len(regions) - len(tc.empty))
			if report.Probed != probed || report.Records != records || probed != 100*present {
				t.Errorf("round totals probed=%d records=%d, region sums %d/%d", report.Probed, report.Records, probed, records)
			}
			if report.Probes != 300*present || report.Retries != 2*present || report.Responsive != 10*present {
				t.Errorf("round totals probes=%d retries=%d responsive=%d over %d regions", report.Probes, report.Retries, report.Responsive, present)
			}
			// The store round was closed with the same verdict.
			if st.NumRounds() != 1 {
				t.Fatalf("store has %d rounds, want the finished one", st.NumRounds())
			}
			round := st.Round(0)
			if round.Probed != report.Probed || round.Degraded != report.Degraded || int64(round.Len()) != present {
				t.Errorf("store round probed=%d degraded=%v len=%d, report %d/%v/%d",
					round.Probed, round.Degraded, round.Len(), report.Probed, report.Degraded, present)
			}
		})
	}

	// A store with no open round surfaces the error instead of a report
	// that never landed.
	if _, err := FinishRound(store.New("closed"), ShardLayout(regions, 1), make([]*ShardResult, 1), true); err == nil {
		t.Error("FinishRound on a store with no open round succeeded")
	}
}
