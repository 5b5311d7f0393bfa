package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/faults"
	"whowas/internal/fetcher"
	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/scanner"
	"whowas/internal/store"
	"whowas/internal/websim"
)

// The chaos suite replays whole campaigns through the fault-injection
// layer and asserts exact outcomes. Everything here leans on two
// properties established elsewhere: netsim answers probes in virtual
// time (an unbound dial fails instantly), and every faults decision is
// a pure function of (seed, ip, port, day, attempt). Together they make
// a faulty campaign reproducible byte for byte, which is what lets the
// tests demand identical store digests instead of loose statistics.

// chaosDays is the round schedule every chaos campaign runs.
var chaosDays = []int{0, 2, 4, 6, 8, 10}

// chaosCloudSeed fixes the substrate; scenario seeds vary per test.
const chaosCloudSeed = 91

// chaosScanTimeout and chaosRoundTimeout are tuned together for the
// blackout test: a held dial burns one scanner timeout per attempt, so
// a blacked-out IP needs 3 ports x 3 attempts x 2s = 18s of wall time —
// past the 15s round deadline even if it started the instant the round
// did. No blacked-out IP ever finishes its scan, which keeps the
// degraded rounds' probed counts (and thus the store digest)
// deterministic. A healthy round is all virtual time and finishes with
// seconds to spare even under the race detector on one CPU — the round
// deadline must clear the round's whole wall time, since the pipeline
// reports a deadline observed anywhere (scan, fetch or featurize) as
// degradation. The probe timeout is also deliberately large relative
// to scheduler latency: with ~64 runnable goroutines sharing one CPU a
// goroutine can wait hundreds of milliseconds for its slice, and a
// probe deadline in that range would expire spuriously.
const (
	chaosScanTimeout  = 2 * time.Second
	chaosRoundTimeout = 15 * time.Second
)

// chaosCloudConfig is a deliberately tiny two-region EC2-like cloud:
// "east" (2048 IPs) feeds the scanner first, "south" (1024 IPs) last,
// so a south blackout hits the tail of each round. Population mix
// follows DefaultEC2Config minus the giants, which don't fit 3K IPs.
func chaosCloudConfig() cloudapi.SimConfig {
	return cloudapi.SimConfig{
		Name:      "chaos-ec2",
		Kind:      websim.EC2Like,
		Days:      12,
		Seed:      chaosCloudSeed,
		BaseOctet: 54,
		Regions: []cloudapi.RegionConfig{
			{Name: "east", Prefixes22: 2, VPC22: 1},
			{Name: "south", Prefixes22: 1, VPC22: 0},
		},
		Population: cloudapi.PopulationConfig{
			TargetResponsive:     0.237,
			Growth:               0.033,
			SSHOnly:              0.259,
			HTTPOnly:             0.380,
			HTTPSOnly:            0.055,
			HTTPBoth:             0.306,
			HTTPFailRate:         0.006,
			DailyBackgroundChurn: 0.05,
			SingletonFrac:        0.788,
			SmallFrac:            0.208,
			MediumFrac:           0.0028,
			EphemeralFrac:        0.114,
			WebClusters:          250,
			VPCClusterShare:      0.27,
			RegisteredDNSShare:   0.55,
		},
	}
}

// chaosCampaignConfig is the resilient pipeline configuration under
// test: 3 scan attempts with near-zero backoff (timeouts are virtual),
// 3 fetch attempts with per-attempt deadlines, and keep-alives off so
// every GET maps to exactly one dial (see fetcher.Config).
func chaosCampaignConfig(sc *faults.Scenario, roundTimeout time.Duration) CampaignConfig {
	return CampaignConfig{
		RoundDays: chaosDays,
		Scanner: scanner.Config{
			Rate:         scanner.UnlimitedRate,
			Workers:      32,
			Timeout:      chaosScanTimeout,
			Attempts:     3,
			RetryBackoff: time.Microsecond,
		},
		Fetcher: fetcher.Config{
			Workers: 32,
			// Generous on purpose: the network is virtual, so a healthy
			// GET never nears this. A tight per-attempt deadline would
			// couple fetch outcomes to real scheduling latency (64
			// workers sharing one CPU) and break byte-identical replays;
			// the deadline-bounds-stalls behavior is unit-tested in the
			// fetcher package instead.
			Timeout:      30 * time.Second,
			Attempts:     3,
			RetryBackoff: time.Microsecond,
		},
		Faults:       sc,
		RoundTimeout: roundTimeout,
	}
}

// chaosOutcome is everything a campaign run exposes for comparison.
type chaosOutcome struct {
	digest  string
	reports []RoundReport
	snap    metrics.Snapshot
	store   *store.Store
	p       *Platform
}

// runChaosCampaign executes one full campaign under the scenario. The
// outer 2-minute context is the anti-wedge guard: a campaign that
// hangs on an injected fault fails here instead of timing out the
// whole test binary.
func runChaosCampaign(t *testing.T, sc *faults.Scenario, roundTimeout time.Duration) chaosOutcome {
	t.Helper()
	p, err := NewPlatform(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Every chaos campaign runs with an Observer wired up: degraded
	// rounds must reach the callback with the same report (regions and
	// all) that lands on p.Reports.
	var observed []RoundReport
	cfg := chaosCampaignConfig(sc, roundTimeout)
	cfg.Observer = func(r RoundReport) { observed = append(observed, r) }
	if err := p.RunCampaign(ctx, cfg); err != nil {
		t.Fatalf("chaos campaign: %v", err)
	}
	if len(p.Reports) != len(chaosDays) {
		t.Fatalf("completed %d rounds, want %d", len(p.Reports), len(chaosDays))
	}
	if !reflect.DeepEqual(observed, p.Reports) {
		t.Fatalf("observer saw %d reports diverging from the platform's %d", len(observed), len(p.Reports))
	}
	digest, err := p.Store.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return chaosOutcome{digest: digest, reports: p.Reports, snap: p.Metrics.Snapshot(), store: p.Store, p: p}
}

// deterministicReports strips the timing-dependent report fields:
// stage durations, and the probe/retry totals. Probe deadlines are
// real time, so a CPU-starved probe can spuriously time out and spend
// an extra attempt (and on a degraded round, how many doomed probes
// even started is a scheduling race) — the counts are reported
// faithfully, not replayed exactly. Every remaining field, and the
// store digest, must replay byte for byte.
func deterministicReports(rs []RoundReport) []RoundReport {
	out := append([]RoundReport(nil), rs...)
	for i := range out {
		out[i].Scan, out[i].Drain, out[i].Total = 0, 0, 0
		out[i].Probes, out[i].Retries = 0, 0
	}
	return out
}

// chaosDigests remembers each scenario's store digest across test
// repetitions in one binary: go test -count=5 reruns must reproduce
// the digest of the first run or the determinism claim is broken.
var (
	chaosDigestsMu sync.Mutex
	chaosDigests   = map[string]string{}
)

func assertStableAcrossRuns(t *testing.T, key, digest string) {
	t.Helper()
	chaosDigestsMu.Lock()
	defer chaosDigestsMu.Unlock()
	if prev, ok := chaosDigests[key]; ok {
		if prev != digest {
			t.Errorf("scenario %q digest changed across runs: %s then %s", key, prev, digest)
		}
		return
	}
	chaosDigests[key] = digest
}

// chaosBaseline runs the fault-free campaign once per binary; the
// scenario tests compare against it.
var (
	chaosBaselineOnce sync.Once
	chaosBaseline     chaosOutcome
	chaosBaselineErr  error
)

func baselineCampaign(t *testing.T) chaosOutcome {
	t.Helper()
	chaosBaselineOnce.Do(func() {
		p, err := NewPlatform(chaosCloudConfig())
		if err != nil {
			chaosBaselineErr = err
			return
		}
		if err := p.RunCampaign(context.Background(), chaosCampaignConfig(nil, 0)); err != nil {
			chaosBaselineErr = err
			return
		}
		digest, err := p.Store.Digest()
		if err != nil {
			chaosBaselineErr = err
			return
		}
		chaosBaseline = chaosOutcome{digest: digest, reports: p.Reports, snap: p.Metrics.Snapshot(), store: p.Store, p: p}
	})
	if chaosBaselineErr != nil {
		t.Fatal(chaosBaselineErr)
	}
	return chaosBaseline
}

func chaosTest(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos campaign skipped in -short mode")
	}
}

// TestChaosInvalidScenarioRefused: the fault layer wraps the data
// plane once, when the campaign builds its shard runner, so a scenario
// outside its bounds fails RunCampaign with faults.Wrap's validation
// error before round 0 begins — no round reaches the store or the
// Observer.
func TestChaosInvalidScenarioRefused(t *testing.T) {
	p, err := NewPlatform(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosCampaignConfig(&faults.Scenario{DialLossPerMille: 1500}, 0)
	observed := 0
	cfg.Observer = func(RoundReport) { observed++ }
	err = p.RunCampaign(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "dial_loss_per_mille = 1500") {
		t.Fatalf("RunCampaign = %v, want the scenario's validation error", err)
	}
	if n := p.Store.NumRounds(); n != 0 || len(p.Reports) != 0 || observed != 0 {
		t.Errorf("%d stored rounds, %d reports, %d observed after a refused scenario, want none", n, len(p.Reports), observed)
	}
}

// TestChaosLossRampCampaign drives the full pipeline through steady
// dial loss climbing to 50% (150 steady + a 0->350 per-mille ramp),
// staggered host flapping, and a mid-campaign slow-network episode.
// The retrying scanner must keep every round productive, and the whole
// campaign must replay byte-identically.
func TestChaosLossRampCampaign(t *testing.T) {
	chaosTest(t)
	base := baselineCampaign(t)
	sc := &faults.Scenario{
		Name:             "loss-ramp",
		Seed:             7,
		DialLossPerMille: 150,
		FlapPerMille:     100,
		FlapPeriodDays:   4,
		FlapDownDays:     2,
		Episodes: []faults.Episode{
			faults.LossRamp(0, 10, 0, 350),
			faults.SlowNetwork(4, 6, 5),
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	got := runChaosCampaign(t, sc, 0)

	var totalRetries int64
	for i, r := range got.reports {
		if r.Degraded {
			t.Errorf("round %d degraded with no round deadline", i)
		}
		if r.Responsive <= 0 || r.Records <= 0 {
			t.Errorf("round %d starved: responsive=%d records=%d", i, r.Responsive, r.Records)
		}
		// Retries recover most of the injected loss: with 3 attempts
		// even the worst round (50% loss) misses an open port only
		// 12.5% of the time, plus ~5% of hosts in a flap window.
		if base := base.reports[i].Responsive; r.Responsive < base*3/4 || r.Responsive > base {
			t.Errorf("round %d responsive %d vs fault-free %d", i, r.Responsive, base)
		}
		totalRetries += r.Retries
	}
	if totalRetries == 0 {
		t.Error("no scan retries under 15-50% dial loss")
	}
	c := got.snap.Counters
	if c["scanner.retries"] != totalRetries {
		t.Errorf("scanner.retries = %d, reports sum %d", c["scanner.retries"], totalRetries)
	}
	for _, name := range []string{"faults.dials_dropped", "faults.flap_drops", "faults.dials_delayed", "fetcher.retries"} {
		if c[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, c[name])
		}
	}
	if got.digest == base.digest {
		t.Error("faulty campaign produced the fault-free store")
	}

	// Same seed, same schedule: byte-identical store and reports.
	again := runChaosCampaign(t, sc, 0)
	if again.digest != got.digest {
		t.Errorf("same scenario, different digests: %s vs %s", got.digest, again.digest)
	}
	wantR, gotR := deterministicReports(got.reports), deterministicReports(again.reports)
	for i := range wantR {
		if !reflect.DeepEqual(wantR[i], gotR[i]) {
			t.Errorf("round %d report diverged:\n first %+v\nsecond %+v", i, wantR[i], gotR[i])
		}
	}
	assertStableAcrossRuns(t, "loss-ramp", got.digest)

	// A different fault seed must not reproduce the same campaign.
	reseeded := *sc
	reseeded.Seed = 8
	other := runChaosCampaign(t, &reseeded, 0)
	if other.digest == got.digest {
		t.Error("different fault seeds produced identical stores")
	}
}

// TestChaosBlackoutDegradesRounds is the acceptance scenario: 20% dial
// loss everywhere plus a hold-mode blackout of the south region on
// days 6-8. The two covered rounds must finalize degraded with only
// east records — never wedge — and the whole campaign must replay
// byte-identically.
func TestChaosBlackoutDegradesRounds(t *testing.T) {
	chaosTest(t)
	sc := &faults.Scenario{
		Name:             "south-blackout",
		Seed:             11,
		DialLossPerMille: 200,
		Episodes:         []faults.Episode{faults.Blackout("south", 6, 8, true)},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	// The design requires south to feed last; verify against the cloud
	// rather than assuming.
	p0, err := NewPlatform(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	ranges := p0.Cloud.Ranges()
	total := int64(ranges.Total())
	first, _ := ranges.AtIndex(0)
	last, _ := ranges.AtIndex(total - 1)
	if p0.Cloud.RegionOf(first) != "east" || p0.Cloud.RegionOf(last) != "south" {
		t.Fatalf("region feed order broken: first in %q, last in %q",
			p0.Cloud.RegionOf(first), p0.Cloud.RegionOf(last))
	}
	var eastIPs int64
	ranges.Each(func(a ipaddr.Addr) bool {
		if p0.Cloud.RegionOf(a) == "east" {
			eastIPs++
		}
		return true
	})

	start := time.Now()
	got := runChaosCampaign(t, sc, chaosRoundTimeout)
	elapsed := time.Since(start)

	blackout := map[int]bool{6: true, 8: true}
	var degradedRounds int64
	for i, r := range got.reports {
		if want := blackout[r.Day]; r.Degraded != want {
			t.Errorf("round %d (day %d): degraded = %v, want %v", i, r.Day, r.Degraded, want)
		}
		round := got.store.Round(i)
		if round.Degraded != r.Degraded {
			t.Errorf("round %d: store degraded %v, report %v", i, round.Degraded, r.Degraded)
		}
		if !r.Degraded {
			if r.Probed != total {
				t.Errorf("healthy round %d probed %d of %d", i, r.Probed, total)
			}
			continue
		}
		degradedRounds++
		// A held dial outlives the round deadline, so no south IP ever
		// completes its scan: the degraded rounds' probed counts and
		// records cover exactly the east region.
		if r.Probed != eastIPs {
			t.Errorf("degraded round %d probed %d, want east's %d", i, r.Probed, eastIPs)
		}
		if r.Records <= 0 {
			t.Errorf("degraded round %d kept no partial records", i)
		}
		// The per-region breakdown pins the blame: east completed and
		// kept its records, south never finished its scan.
		regions := map[string]RegionReport{}
		for _, reg := range r.Regions {
			regions[reg.Region] = reg
		}
		if east := regions["east"]; east.Degraded || east.Records <= 0 || east.Probed != eastIPs {
			t.Errorf("degraded round %d east region = %+v, want completed with records", i, east)
		}
		if south := regions["south"]; !south.Degraded || south.Records != 0 {
			t.Errorf("degraded round %d south region = %+v, want degraded with no records", i, south)
		}
		round.Each(func(rec *store.Record) bool {
			if p0.Cloud.RegionOf(rec.IP) == "south" {
				t.Errorf("degraded round %d stored blacked-out IP %s", i, rec.IP)
				return false
			}
			return true
		})
	}
	c := got.snap.Counters
	if c["core.degraded_rounds"] != degradedRounds || degradedRounds != 2 {
		t.Errorf("core.degraded_rounds = %d, degraded reports = %d, want 2", c["core.degraded_rounds"], degradedRounds)
	}
	for _, name := range []string{"faults.blackout_drops", "faults.dials_dropped", "scanner.retries"} {
		if c[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, c[name])
		}
	}
	// Zero wedged rounds: the campaign's wall clock is bounded by the
	// two deadline-limited rounds plus fast healthy rounds.
	if budget := 4*chaosRoundTimeout + time.Minute; elapsed > budget {
		t.Errorf("blackout campaign took %v, budget %v", elapsed, budget)
	}

	again := runChaosCampaign(t, sc, chaosRoundTimeout)
	if again.digest != got.digest {
		t.Errorf("same scenario, different digests: %s vs %s", got.digest, again.digest)
	}
	wantR, gotR := deterministicReports(got.reports), deterministicReports(again.reports)
	for i := range wantR {
		if !reflect.DeepEqual(wantR[i], gotR[i]) {
			t.Errorf("round %d report diverged:\n first %+v\nsecond %+v", i, wantR[i], gotR[i])
		}
	}
	assertStableAcrossRuns(t, "south-blackout", got.digest)
}

// TestChaosStreamFaultsCampaign injects only connection-stream faults:
// mid-stream resets, stalled first reads and truncated bodies. Probing
// never reads, so responsiveness must match the fault-free campaign
// exactly; the fetcher must retry through the damage without wedging.
func TestChaosStreamFaultsCampaign(t *testing.T) {
	chaosTest(t)
	base := baselineCampaign(t)
	sc := &faults.Scenario{
		Name:             "stream-faults",
		Seed:             13,
		ResetPerMille:    200,
		ResetAfterBytes:  64,
		StallPerMille:    80,
		StallMS:          250, // the stall timer expires and the read proceeds; outcome unchanged, just late
		TruncatePerMille: 150,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	got := runChaosCampaign(t, sc, 0)

	for i, r := range got.reports {
		if r.Degraded {
			t.Errorf("round %d degraded with no round deadline", i)
		}
		if r.Responsive != base.reports[i].Responsive {
			t.Errorf("round %d responsive %d, fault-free %d — stream faults must not affect probing",
				i, r.Responsive, base.reports[i].Responsive)
		}
		if r.Fetched <= 0 || r.Records <= 0 {
			t.Errorf("round %d starved: fetched=%d records=%d", i, r.Fetched, r.Records)
		}
	}
	c := got.snap.Counters
	for _, name := range []string{"faults.resets", "faults.stalls", "faults.truncations", "fetcher.retries"} {
		if c[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, c[name])
		}
	}
	// No dial faults were injected, so nothing was dropped or delayed.
	for _, name := range []string{"faults.dials_dropped", "faults.blackout_drops", "faults.flap_drops", "faults.dials_delayed"} {
		if c[name] != 0 {
			t.Errorf("%s = %d, want 0", name, c[name])
		}
	}

	again := runChaosCampaign(t, sc, 0)
	if again.digest != got.digest {
		t.Errorf("same scenario, different digests: %s vs %s", got.digest, again.digest)
	}
	assertStableAcrossRuns(t, "stream-faults", got.digest)
}

// TestChaosBaselineDeterminism anchors the comparisons above: the
// fault-free campaign itself replays byte-identically, so any digest
// drift in the chaos tests is attributable to the fault layer.
func TestChaosBaselineDeterminism(t *testing.T) {
	chaosTest(t)
	base := baselineCampaign(t)
	again := runChaosCampaign(t, nil, 0)
	if again.digest != base.digest {
		t.Errorf("fault-free campaign not deterministic: %s vs %s", base.digest, again.digest)
	}
	assertStableAcrossRuns(t, "baseline", base.digest)
}
