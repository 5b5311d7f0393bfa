// Package core assembles the WhoWas platform (§4, Figure 1): the
// scanner, webpage fetcher and feature generator populating a
// round-oriented store, plus the analysis attachments — clustering and
// cloud cartography. It is the public face of the library: the CLIs,
// the examples and the benchmark harness all drive a Platform.
//
// A Platform binds one simulated cloud (the measurement substrate
// standing in for 2013 EC2/Azure — see DESIGN.md) to one measurement
// campaign. Running a campaign executes the paper's §6 schedule: a
// round of scanning every three days for the first two months and
// daily for the final month.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"whowas/internal/atomicfile"
	"whowas/internal/carto"
	"whowas/internal/cloudapi"
	"whowas/internal/cluster"
	"whowas/internal/faults"
	"whowas/internal/fetcher"
	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/ratelimit"
	"whowas/internal/scanner"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// CampaignConfig drives one measurement campaign.
type CampaignConfig struct {
	// RoundDays are the campaign day offsets on which rounds run; nil
	// means the paper's schedule (DefaultRoundSchedule).
	RoundDays []int
	// Scanner and Fetcher tune the pipeline; zero values take the
	// paper's defaults (see scanner.Config.WithDefaults and
	// fetcher.Config.WithDefaults for the resolved values). Every
	// fetch carries fetcher.DefaultUserAgent, which per §7 identifies
	// the measurement as research and carries a contact address.
	Scanner scanner.Config
	Fetcher fetcher.Config
	// Blacklist lists opted-out IPs that are never probed (§4/§7).
	Blacklist *ipaddr.Set
	// Faults, when non-nil, wraps the platform's network with the
	// deterministic fault-injection layer (internal/faults) for chaos
	// campaigns: every scanner probe and fetcher GET dials through the
	// scenario's seeded faults, and the faults.* injection counters
	// land in the platform registry.
	Faults *faults.Scenario
	// RoundTimeout bounds each round's wall-clock time. A round that
	// exceeds it degrades gracefully — it finalizes with the records
	// collected so far and RoundReport.Degraded set — instead of
	// wedging the campaign. 0 means no deadline (the default).
	RoundTimeout time.Duration
	// PipelineShards sets how many region lanes the round pipeline
	// runs: each lane is an independent scan→fetch→featurize chain over
	// its share of the cloud's regions (ShardLayout), handing the store
	// its records in one batch. 0 (the default) means one lane per
	// region; 1 recovers the unsharded round; values above the region
	// count are clamped. The store contents are byte-identical for any
	// shard count — the round is IP-sorted before its digest is taken.
	PipelineShards int
	// Observer, when non-nil, receives one structured RoundReport as
	// each round completes. It is called synchronously from
	// RunCampaign between rounds, so it needs no locking but should
	// return promptly.
	Observer func(RoundReport)
}

// RoundReport is the structured per-round event delivered to
// CampaignConfig.Observer and accumulated on Platform.Reports. It
// joins the scanner's counts, the fetch/store pipeline's counts, and
// the round's stage timings into one flat record; the -metrics CLI
// flag serializes the whole campaign's reports as JSON.
type RoundReport struct {
	Round int `json:"round"` // round index, 0-based
	Day   int `json:"day"`   // campaign day offset

	// Scanning counts (this round only).
	Probed     int64 `json:"probed"`     // IPs probed
	Skipped    int64 `json:"skipped"`    // IPs skipped via the opt-out blacklist
	Probes     int64 `json:"probes"`     // individual port probes sent
	Responsive int64 `json:"responsive"` // IPs answering at least one probe

	// Fetching/storing counts (this round only).
	Fetched      int64 `json:"fetched"`       // pages with an HTTP response
	RobotsDenied int64 `json:"robots_denied"` // IPs whose robots.txt disallowed "/"
	FetchErrors  int64 `json:"fetch_errors"`  // transport-level fetch failures
	Records      int64 `json:"records"`       // records stored
	BodyBytes    int64 `json:"body_bytes"`    // page body bytes collected

	// Resilience (faulty-network campaigns).
	Retries  int64 `json:"retries"`  // scan probes retried after timeouts
	Degraded bool  `json:"degraded"` // round hit RoundTimeout; records are partial

	// Stage durations. Fetching overlaps scanning, so Scan covers the
	// scan of the whole address space, Drain the tail from scan
	// completion until the last page was stored, and Total the whole
	// round including store finalization.
	Scan  time.Duration `json:"scan_ns"`
	Drain time.Duration `json:"drain_ns"`
	Total time.Duration `json:"total_ns"`

	// Regions breaks the round down by cloud region (one entry per
	// region, in address-range order), reflecting the pipeline's
	// region-sharded lanes.
	Regions []RegionReport `json:"regions,omitempty"`
}

// ProgressLine renders the round as the one line every campaign CLI
// prints per round.
func (r RoundReport) ProgressLine() string {
	line := fmt.Sprintf("round %2d (day %2d): %d/%d responsive, %d fetched, %d errors, scan %s",
		r.Round, r.Day, r.Responsive, r.Probed, r.Fetched, r.FetchErrors, r.Scan.Round(time.Millisecond))
	if r.Retries > 0 {
		line += fmt.Sprintf(", %d retries", r.Retries)
	}
	if r.Degraded {
		line += " [degraded]"
	}
	return line
}

// RegionReport is one region's share of a round.
type RegionReport struct {
	Region     string `json:"region"`
	Probed     int64  `json:"probed"`
	Skipped    int64  `json:"skipped"`
	Responsive int64  `json:"responsive"`
	Fetched    int64  `json:"fetched"`
	Records    int64  `json:"records"`
	// Degraded marks a region whose scan had not completed when the
	// round hit its deadline; its counts are partial.
	Degraded bool `json:"degraded,omitempty"`
}

// DefaultRoundSchedule reproduces §6: one round every 3 days during
// the first two months, then daily for the final month. For the
// 93-day EC2 campaign this yields the paper's 51 rounds.
func DefaultRoundSchedule(days int) []int {
	var out []int
	dailyFrom := days - 30
	if dailyFrom < 0 {
		dailyFrom = 0
	}
	for d := 0; d < dailyFrom; d += 3 {
		out = append(out, d)
	}
	for d := dailyFrom; d < days; d++ {
		out = append(out, d)
	}
	return out
}

// FastCampaign returns a config that runs the full schedule at
// simulation speed: probing is unthrottled (simulation only — see
// scanner.UnlimitedRate) and worker pools are sized for throughput.
func FastCampaign() CampaignConfig {
	w := fastWorkers()
	return CampaignConfig{
		Scanner: scanner.Config{Rate: scanner.UnlimitedRate, Workers: w},
		Fetcher: fetcher.Config{Workers: w, Timeout: 10 * time.Second},
	}
}

// fastWorkers scales the simulation-speed pools with the hardware,
// floored at the historical fixed size of 128.
func fastWorkers() int {
	w := 32 * runtime.GOMAXPROCS(0)
	if w < 128 {
		w = 128
	}
	return w
}

// Platform is one cloud's measurement deployment. The cloud is
// consumed exclusively through the cloudapi boundary, so the same
// platform code drives an in-process simulation or a remote
// whowas-cloudd daemon.
type Platform struct {
	Cloud cloudapi.Cloud
	Store *store.Store
	// CartoMap is set by RunCartography (EC2-like clouds).
	CartoMap *carto.Map
	// Clusters is set by RunClustering.
	Clusters *cluster.Result
	// Metrics aggregates instrumentation from every pipeline stage
	// (scanner, fetcher, store, clustering, cartography). NewPlatform
	// installs a fresh registry; setting the field to nil before
	// RunCampaign disables instrumentation entirely (the benchmark
	// baseline does this).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records the campaign's span tree: a root
	// span per round, stage children (scan, fetch, featurize), and
	// sampled per-IP probe/get spans. Nil (the default) traces
	// nothing — every span call no-ops.
	Tracer *trace.Tracer
	// Reports holds one RoundReport per completed campaign round, in
	// round order, regardless of whether an Observer was configured.
	// RunCampaign appends between rounds; concurrent readers (the ops
	// server) should use RoundReports instead of the bare field.
	Reports []RoundReport

	reportsMu sync.Mutex // guards Reports against mid-campaign readers

	// laneHook, when non-nil, runs on each lane's result just before it
	// is handed to Store.PutBatch. Tests inject hand-off failures and
	// mid-round cancellations through it.
	laneHook func(*ShardResult) error
}

// RoundReports returns a copy of the completed rounds' reports. Safe
// to call while a campaign is running (the ops server's /rounds
// endpoint does).
func (p *Platform) RoundReports() []RoundReport {
	p.reportsMu.Lock()
	defer p.reportsMu.Unlock()
	return append([]RoundReport(nil), p.Reports...)
}

func (p *Platform) appendReport(r RoundReport) {
	p.reportsMu.Lock()
	defer p.reportsMu.Unlock()
	p.Reports = append(p.Reports, r)
}

// NewPlatform builds an in-process simulated cloud and an empty
// store. It is the convenience path for local campaigns; wire-mode
// callers Dial a daemon and hand the client to NewPlatformCloud.
func NewPlatform(cloudCfg cloudapi.SimConfig) (*Platform, error) {
	cloud, err := cloudapi.NewInProcess(cloudCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewPlatformCloud(cloud)
}

// NewPlatformCloud builds a platform over an already-constructed
// cloud — in-process or a cloudapi.Client speaking to whowas-cloudd.
func NewPlatformCloud(cloud cloudapi.Cloud) (*Platform, error) {
	if cloud == nil {
		return nil, fmt.Errorf("core: nil cloud")
	}
	reg := metrics.NewRegistry()
	st := store.New(cloud.Info().Name)
	st.SetMetrics(reg)
	return &Platform{
		Cloud:   cloud,
		Store:   st,
		Metrics: reg,
	}, nil
}

// UseStoreBackend replaces the platform's store with a fresh one over
// the given backend — the hook through which the CLIs select the
// columnar engine (-store-dir). Call it before the campaign starts;
// any rounds already collected in the old store are not migrated. The
// platform's metrics registry and tracer are re-attached so store
// instrumentation is uninterrupted.
func (p *Platform) UseStoreBackend(b store.Backend) error {
	if p.Store.NumRounds() > 0 {
		return fmt.Errorf("core: store already holds %d rounds; select the backend before collecting", p.Store.NumRounds())
	}
	st := store.NewWithBackend(p.Store.CloudName, b)
	st.SetMetrics(p.Metrics)
	st.SetTracer(p.Tracer)
	p.Store = st
	return nil
}

// withPlatformDefaults threads the platform registry, tracer and
// region map through the pipeline components unless the caller
// supplied component-specific ones.
func withPlatformDefaults(p *Platform, cfg CampaignConfig) CampaignConfig {
	if cfg.Scanner.Metrics == nil {
		cfg.Scanner.Metrics = p.Metrics
	}
	if cfg.Fetcher.Metrics == nil {
		cfg.Fetcher.Metrics = p.Metrics
	}
	if cfg.Scanner.Tracer == nil {
		cfg.Scanner.Tracer = p.Tracer
	}
	if cfg.Fetcher.Tracer == nil {
		cfg.Fetcher.Tracer = p.Tracer
	}
	if cfg.Scanner.RegionOf == nil {
		cfg.Scanner.RegionOf = p.Cloud.RegionOf
	}
	if cfg.Fetcher.RegionOf == nil {
		cfg.Fetcher.RegionOf = p.Cloud.RegionOf
	}
	return cfg
}

// RunCampaign executes rounds per the config's schedule: each round is
// the RunRound frame around the region-sharded pipeline (round.go) —
// scan the cloud's ranges, fetch pages for responsive web IPs, extract
// features, store the records — one ShardRunner lane per region shard,
// all on one runner so the scanner's rate limiter stays the
// campaign-wide §7 probe budget. Each completed round appends a
// RoundReport to p.Reports and, when configured, invokes cfg.Observer
// with it.
func (p *Platform) RunCampaign(ctx context.Context, cfg CampaignConfig) error {
	days := cfg.RoundDays
	if days == nil {
		days = DefaultRoundSchedule(p.Cloud.Days())
	}
	cfg = withPlatformDefaults(p, cfg)
	if p.Tracer != nil {
		p.Store.SetTracer(p.Tracer)
	}
	runner, err := NewShardRunner(p.Cloud, cfg)
	if err != nil {
		return err
	}
	layout := ShardLayout(runner.RegionNames(), cfg.PipelineShards)
	runner.scanWorkers = poolShare(runner.scanWorkers, len(layout))
	runner.fetchWorkers = poolShare(runner.fetchWorkers, len(layout))
	for i, day := range days {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := p.RunRound(ctx, layout, i, day, cfg.Observer, func(ctx context.Context) ([]*ShardResult, bool, error) {
			results, err := p.runLanes(ctx, runner, layout)
			return results, false, err
		})
		// One CloseIdle per round, once every lane is done and the report
		// stamped: tearing the shared fetcher's pool down is not part of
		// the round's Total.
		runner.CloseIdle()
		if err != nil {
			return err
		}
	}
	return nil
}

// DisableMetrics detaches instrumentation from the platform and its
// store: subsequent campaigns take the uninstrumented fast path (no
// counter updates, no latency clock reads). The overhead benchmark
// uses it to measure the instrumented/uninstrumented gap.
func (p *Platform) DisableMetrics() {
	p.Metrics = nil
	p.Store.SetMetrics(nil)
}

// CampaignReport is the campaign-level observability document the
// CLIs' -metrics flag serializes: the per-round reports plus a full
// snapshot of every pipeline instrument.
type CampaignReport struct {
	Cloud   string           `json:"cloud"`
	Rounds  []RoundReport    `json:"rounds"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// Report assembles the platform's campaign report. Call it after the
// campaign (and any clustering/cartography passes) so every stage's
// instruments are populated.
func (p *Platform) Report() CampaignReport {
	return CampaignReport{
		Cloud:   p.Store.CloudName,
		Rounds:  p.RoundReports(),
		Metrics: p.Metrics.Snapshot(),
	}
}

// WriteJSON writes the report as indented JSON.
func (r CampaignReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// AnnounceDigest prints how many rounds a campaign collected and the
// store digest. The digest is the campaign's identity: the cloudd,
// coord and store gates diff it between runs of one seed.
func AnnounceDigest(w io.Writer, st *store.Store) error {
	fmt.Fprintf(w, "campaign complete: %d rounds collected\n", st.NumRounds())
	digest, err := st.Digest()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "store digest: %s\n", digest)
	return nil
}

// WriteOutputs is how every campaign CLI ends: the store goes to
// outPath as a gob and the report to metricsPath as JSON, each
// atomically (a crash mid-write never leaves a torn file) and each
// announced on w. An empty path skips its file.
func WriteOutputs(w io.Writer, st *store.Store, outPath string, report CampaignReport, metricsPath string) error {
	if outPath != "" {
		if err := atomicfile.WriteWith(outPath, st.Save); err != nil {
			return err
		}
		fmt.Fprintf(w, "store written to %s\n", outPath)
	}
	return report.WriteFile(w, metricsPath)
}

// WriteFile is the -metrics half of WriteOutputs, for a process with
// a report and no store (a fleet worker).
func (r CampaignReport) WriteFile(w io.Writer, path string) error {
	if path == "" {
		return nil
	}
	if err := atomicfile.WriteWith(path, r.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(w, "metrics report written to %s\n", path)
	return nil
}

// RunCartography performs the §5 one-time VPC/classic DNS sweep and
// joins the labels onto every stored record. Azure-like clouds have no
// VPC; the sweep still runs and labels everything classic.
func (p *Platform) RunCartography(ctx context.Context, cfg carto.Config) error {
	resolver := p.Cloud.Resolver(0)
	if cfg.Clock == nil {
		cfg.Clock = ratelimit.NewFakeClock(time.Unix(1380499200, 0))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = p.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = p.Tracer
	}
	m, err := carto.Sweep(ctx, resolver, p.Cloud.Ranges(), p.Cloud.RegionOf, cfg)
	if err != nil {
		return err
	}
	p.CartoMap = m
	if err := m.Apply(p.Store); err != nil {
		return err
	}
	return nil
}

// RunClustering executes the §5 clustering over the collected rounds
// and records the result on the platform.
func (p *Platform) RunClustering(cfg cluster.Config) error {
	if cfg.Seed == 0 {
		cfg.Seed = p.Cloud.Info().Seed
	}
	if cfg.Metrics == nil {
		cfg.Metrics = p.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = p.Tracer
	}
	res, err := cluster.Run(p.Store, cfg)
	if err != nil {
		return err
	}
	p.Clusters = res
	return nil
}

// History is the headline "whowas" lookup: the per-round records of
// one IP across the campaign.
func (p *Platform) History(ip ipaddr.Addr) []*store.Record {
	return p.Store.History(ip)
}

// IsEC2Like reports whether the platform's cloud models EC2 (and thus
// has VPC networking and a meaningful cartography).
func (p *Platform) IsEC2Like() bool {
	return p.Cloud.Info().IsEC2Like()
}
