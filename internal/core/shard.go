// The lane: a ShardRunner executes one scan → fetch → featurize lane
// over a subset of the cloud's regions and returns the counts and
// records as a ShardResult. It is the only thing that runs a lane —
// RunCampaign (round.go) runs a round's lanes concurrently on one
// shared runner, a coord worker runs its assigned shards one at a time
// on its own — and finishRound is the only thing that folds the results
// into a finalized store round, so store digests are byte-identical for
// any lane or worker count. The lane is a plain function (runLane) whose
// stages run on a first-error group; the rule that turns a RoundTimeout
// into a degraded result instead of a failure lives in deadlineHit and
// nowhere else.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/faults"
	"whowas/internal/features"
	"whowas/internal/fetcher"
	"whowas/internal/ipaddr"
	"whowas/internal/scanner"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// shardSession distinguishes probe sessions across RunShard calls in
// one process; os.Getpid distinguishes them across worker processes.
var shardSession atomic.Int64

// RegionResult is one region's share of a shard run. It carries the
// scanner's counts and the fetch-side tallies finishRound folds into
// the round's RegionReport.
type RegionResult struct {
	Region       string        `json:"region"`
	Stats        scanner.Stats `json:"stats"`
	Fetched      int64         `json:"fetched"`
	RobotsDenied int64         `json:"robots_denied"`
	FetchErrors  int64         `json:"fetch_errors"`
	Records      int64         `json:"records"`
	BodyBytes    int64         `json:"body_bytes"`
	// ScanDone reports whether the region's scan ran to completion; a
	// false value under a degraded shard marks the region partial.
	ScanDone bool `json:"scan_done"`
}

// ShardResult is everything one shard run produced: the per-region
// counts, the extracted records, whether the shard degraded under its
// deadline, and the lane's timings.
type ShardResult struct {
	Regions  []RegionResult  `json:"regions"`
	Records  []*store.Record `json:"records"`
	Degraded bool            `json:"degraded"`
	// Scan is how long the lane's scan stage ran; Total the whole lane,
	// until its last page was featurized. Fetching overlaps scanning.
	Scan  time.Duration `json:"scan_ns"`
	Total time.Duration `json:"total_ns"`
}

// region returns the named region's result, or nil when the shard is
// nil (never submitted) or did not cover it.
func (s *ShardResult) region(name string) *RegionResult {
	if s == nil {
		return nil
	}
	for i := range s.Regions {
		if s.Regions[i].Region == name {
			return &s.Regions[i]
		}
	}
	return nil
}

// laneRegion is one region's slice of the probed address space.
type laneRegion struct {
	name   string
	ranges *ipaddr.RangeList
}

// ShardRunner executes region shards against a cloud. It owns one
// scanner and one fetcher, shared by every lane it runs — the scanner's
// rate limiter is the §7 probe budget (the whole budget in-process, the
// worker's leased slice in a fleet) — but never touches a store or the
// cloud's day schedule; both belong to whoever finishes the round.
type ShardRunner struct {
	cfg          CampaignConfig
	scn          *scanner.Scanner
	ftc          *fetcher.Fetcher
	regions      []laneRegion
	slots        map[string]int // region name -> slot
	scanWorkers  int            // per-lane scan pool
	fetchWorkers int            // per-lane fetch pool
}

// NewShardRunner builds a runner over the cloud. Region hooks default
// to the cloud's, and a fault scenario wraps the data plane through
// faults.Wrap at this single point, so in-process and wire campaigns
// inject identically; its decisions are deterministic per (ip, port,
// day, attempt), so the same scenario reproduces the same campaign
// byte for byte — over any transport and any worker count. The control
// plane is never wrapped.
func NewShardRunner(cloud cloudapi.Cloud, cfg CampaignConfig) (*ShardRunner, error) {
	if cloud == nil {
		return nil, fmt.Errorf("core: nil cloud")
	}
	if cfg.Scanner.RegionOf == nil {
		cfg.Scanner.RegionOf = cloud.RegionOf
	}
	if cfg.Fetcher.RegionOf == nil {
		cfg.Fetcher.RegionOf = cloud.RegionOf
	}
	var dialer cloudapi.Dialer = cloud
	if cfg.Faults != nil {
		inj, err := faults.Wrap(cloud, *cfg.Faults, faults.Options{
			Day:      cloud.Day,
			RegionOf: cloud.RegionOf,
			Metrics:  cfg.Scanner.Metrics,
		})
		if err != nil {
			return nil, err
		}
		dialer = inj
	}
	scn, err := scanner.New(dialer, cfg.Scanner)
	if err != nil {
		return nil, err
	}
	ftc, err := fetcher.New(dialer, cfg.Fetcher)
	if err != nil {
		return nil, err
	}
	r := &ShardRunner{cfg: cfg, scn: scn, ftc: ftc}
	r.regions, err = splitRegions(cloud.Ranges(), cfg.Scanner.RegionOf)
	if err != nil {
		return nil, fmt.Errorf("core: splitting regions: %w", err)
	}
	r.slots = make(map[string]int, len(r.regions))
	for i, reg := range r.regions {
		r.slots[reg.name] = i
	}
	// A worker runs one lane at a time on the full pools; RunCampaign
	// divides them over its concurrent lanes (poolShare).
	r.scanWorkers = cfg.Scanner.WithDefaults().Workers
	r.fetchWorkers = cfg.Fetcher.WithDefaults().Workers
	return r, nil
}

// splitRegions groups the probed ranges by region, preserving the
// address-range order both of regions and of each region's prefixes
// (cloudsim regions are /22-contiguous, so a prefix's first address
// labels the whole prefix).
func splitRegions(ranges *ipaddr.RangeList, regionOf func(ipaddr.Addr) string) ([]laneRegion, error) {
	var out []laneRegion
	idx := map[string]int{}
	var groups [][]ipaddr.Prefix
	for _, p := range ranges.Prefixes() {
		name := ""
		if regionOf != nil {
			name = regionOf(p.First())
		}
		i, ok := idx[name]
		if !ok {
			i = len(groups)
			idx[name] = i
			groups = append(groups, nil)
			out = append(out, laneRegion{name: name})
		}
		groups[i] = append(groups[i], p)
	}
	for i := range out {
		rl, err := ipaddr.NewRangeList(groups[i])
		if err != nil {
			return nil, err
		}
		out[i].ranges = rl
	}
	return out, nil
}

// RegionNames lists the cloud's regions in address-range order — the
// order ShardLayout deals them into shards in.
func (r *ShardRunner) RegionNames() []string {
	return regionNames(r.regions)
}

func regionNames(regs []laneRegion) []string {
	out := make([]string, len(regs))
	for i, reg := range regs {
		out[i] = reg.name
	}
	return out
}

// CloudRegionNames lists a cloud's regions in address-range order —
// the same split and order a ShardRunner over that cloud uses, so a
// coordinator's shard layout lines up with its workers' runners.
func CloudRegionNames(cloud cloudapi.Cloud) ([]string, error) {
	regs, err := splitRegions(cloud.Ranges(), cloud.RegionOf)
	if err != nil {
		return nil, fmt.Errorf("core: splitting regions: %w", err)
	}
	return regionNames(regs), nil
}

// CloseIdle drops the fetcher's pooled connections. Pooled connections
// must not outlive a round — the next one is days away, and a
// kept-alive connection must not outlive the IP's tenancy. RunShard
// calls it on every exit path; workers call it again at shutdown.
func (r *ShardRunner) CloseIdle() {
	r.ftc.CloseIdle()
}

// RunShard executes one shard — the named regions, in the given
// order — as a single scan → fetch → featurize lane and returns the
// counts and records. When the config carries a RoundTimeout the shard
// degrades gracefully at the deadline (partial records, Degraded set)
// instead of failing.
func (r *ShardRunner) RunShard(ctx context.Context, regions []string) (*ShardResult, error) {
	// Every run gets a fresh probe session so the simulated network's
	// transient-loss bookkeeping treats it as a first measurement. A
	// shard re-run after its original worker died mid-probe must not
	// inherit the victim's partial attempt counts — that would flip
	// lossy IPs responsive and break 1-vs-N digest identity.
	ctx = cloudapi.WithProbeSession(ctx,
		fmt.Sprintf("shard-%d-%d", os.Getpid(), shardSession.Add(1)))
	defer r.CloseIdle()
	return r.runLane(ctx, regions)
}

// runLane is the lane body: one scan goroutine over the regions feeds
// a pool of fetch workers through a bounded channel, and their pages
// come back through a second one to the calling goroutine, which
// featurizes them — all under the config's RoundTimeout. A full channel
// backpressures the stage before it; the first error cancels every
// stage, so none is left parked on a send. The stage spans are children
// of the span ctx carries (the in-process round's root; none on a
// worker, whose spans the coordinator re-parents). It keeps the
// caller's probe session and leaves the fetcher's pooled connections
// alone: sibling lanes share the fetcher, and keep-alive reuse between
// a robots.txt and its page GET is digest-relevant under faults.
func (r *ShardRunner) runLane(ctx context.Context, regions []string) (*ShardResult, error) {
	slots := make([]int, 0, len(regions))
	for _, name := range regions {
		slot, ok := r.slots[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown region %q", name)
		}
		slots = append(slots, slot)
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("core: empty shard")
	}
	label := strings.Join(regions, ",")
	laneAttr := trace.String("regions", label)

	laneCtx, cancel := ctx, context.CancelFunc(func() {})
	if r.cfg.RoundTimeout > 0 {
		laneCtx, cancel = context.WithTimeout(ctx, r.cfg.RoundTimeout)
	}
	defer cancel()

	// Indexed by region slot: the scan goroutine writes Stats and
	// ScanDone, this goroutine the fetch-side tallies.
	regs := make([]RegionResult, len(r.regions))
	out := &ShardResult{}
	// 1024 deep so a burst of responsive IPs (or of pages) rides out a
	// momentarily busy next stage without stalling the one behind it.
	results := make(chan scanner.Result, 1024)
	pages := make(chan fetcher.Page, 1024)

	start := time.Now()
	g, gctx := newGroup(laneCtx)
	g.Go(func() error {
		defer close(results)
		err := r.stage(gctx, ctx, "scan", laneAttr, func(ctx context.Context) (int64, error) {
			return 0, r.scanSlots(ctx, slots, results, regs)
		})
		out.Scan = time.Since(start)
		return err
	})
	g.Go(func() error {
		defer close(pages)
		return r.stage(gctx, ctx, "fetch", laneAttr, func(ctx context.Context) (int64, error) {
			return r.fetchPool(ctx, results, pages)
		})
	})
	err := r.stage(gctx, ctx, "featurize", laneAttr, func(ctx context.Context) (int64, error) {
		for {
			select {
			case page, ok := <-pages:
				if !ok {
					return int64(len(out.Records)), nil
				}
				out.Records = append(out.Records, r.featurize(&page, regs))
			case <-ctx.Done():
				return int64(len(out.Records)), ctx.Err()
			}
		}
	})
	if gerr := g.Wait(); gerr != nil {
		err = gerr
	}
	out.Total = time.Since(start)
	// A campaign cancelled mid-lane fails the lane even when every
	// stage happened to exit cleanly first.
	if err == nil {
		err = ctx.Err()
	}
	switch {
	case err == nil:
	case deadlineHit(ctx, err):
		out.Degraded = true
	default:
		return nil, fmt.Errorf("core: shard %s: %w", label, err)
	}
	for _, slot := range slots {
		regs[slot].Region = r.regions[slot].name
		out.Regions = append(out.Regions, regs[slot])
	}
	return out, nil
}

// deadlineHit is the degrade rule, the only place a deadline becomes
// degradation: err is the lane's RoundTimeout expiring while the
// caller's context is still live. The lane then keeps its partial
// output and reports Degraded; any other context error — the campaign
// cancelled, a sibling lane failed — fails the lane and aborts the
// round.
func deadlineHit(caller context.Context, err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && caller.Err() == nil
}

// stage runs one lane stage under its span (a child of the span ctx
// carries, riding the context handed to run so sampled per-IP spans
// nest under it), its "pipeline.<name>" stage timer and its
// "pipeline.<name>.items" counter. caller is the lane's caller's
// context, for the degrade rule's span mark — a timing attribute,
// excluded from determinism comparisons.
func (r *ShardRunner) stage(ctx, caller context.Context, name string, attr trace.Attr, run func(ctx context.Context) (items int64, err error)) error {
	sp := r.cfg.Scanner.Tracer.Start(name, trace.FromContext(ctx), attr)
	if sp != nil {
		ctx = trace.NewContext(ctx, sp)
	}
	m := r.cfg.Scanner.Metrics
	start := time.Now()
	items, err := run(ctx)
	m.Histogram("pipeline." + name).Observe(time.Since(start))
	if items > 0 {
		m.Counter("pipeline." + name + ".items").Add(items)
		sp.SetAttr(trace.Int64("items", items))
	}
	switch {
	case err == nil:
	case deadlineHit(caller, err):
		sp.SetAttr(trace.String("error", "deadline"))
	case errors.Is(err, context.Canceled):
		sp.SetAttr(trace.String("error", "canceled"))
	default:
		sp.SetAttr(trace.String("error", "failed"))
	}
	sp.End()
	return err
}

// fetchPool runs the lane's fetch workers: each turns scan results
// into pages until results closes or ctx ends. It returns the pages
// sent and the first worker's context error.
func (r *ShardRunner) fetchPool(ctx context.Context, results <-chan scanner.Result, pages chan<- fetcher.Page) (int64, error) {
	var sent atomic.Int64
	g, ctx := newGroup(ctx)
	for w := 0; w < r.fetchWorkers; w++ {
		g.Go(func() error {
			for {
				select {
				case res, ok := <-results:
					if !ok {
						return nil
					}
					page := r.ftc.Exchange(ctx, res)
					select {
					case pages <- page:
						sent.Add(1)
					case <-ctx.Done():
						return ctx.Err()
					}
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		})
	}
	err := g.Wait()
	return sent.Load(), err
}

// featurize extracts one page's record and tallies the page into its
// region's slot.
func (r *ShardRunner) featurize(page *fetcher.Page, regs []RegionResult) *store.Record {
	t := &regs[r.slots[r.cfg.Scanner.RegionOf(page.IP)]]
	if page.Available() {
		t.Fetched++
	}
	if page.RobotsDenied {
		t.RobotsDenied++
	}
	if page.Err != nil {
		t.FetchErrors++
	}
	t.BodyBytes += int64(len(page.Body))
	rec := features.FromPage(page)
	// EndRound would drop the body anyway; shedding it here keeps it
	// off the wire and out of the round's memory.
	rec.Body = ""
	t.Records++
	return rec
}

// group runs functions on goroutines of their own under one derived
// context: the first to return an error cancels it, so the others
// unwind instead of parking on a channel, and Wait returns that error
// once all have exited.
type group struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc
	once   sync.Once
	err    error
}

func newGroup(ctx context.Context) (*group, context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	return &group{cancel: cancel}, ctx
}

func (g *group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

func (g *group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}

// scanSlots runs the given region slots through the scanner,
// sequentially, into the lane's results stream. Per-region stats land
// in their slots even when a later region never runs (the deadline
// case); ScanDone drives the per-region Degraded report bits.
func (r *ShardRunner) scanSlots(ctx context.Context, slots []int, out chan<- scanner.Result, regs []RegionResult) error {
	for _, slot := range slots {
		st, err := r.scn.ScanRangesInto(ctx, r.regions[slot].ranges, r.cfg.Blacklist, out, r.scanWorkers)
		if st != nil {
			regs[slot].Stats = *st
		}
		if err != nil {
			return err
		}
		regs[slot].ScanDone = true
	}
	// Lane-granularity scan-span attributes (the span rides the node
	// context).
	if sp := trace.FromContext(ctx); sp != nil {
		var probed, responsive, retries int64
		for _, slot := range slots {
			probed += regs[slot].Stats.Probed
			responsive += regs[slot].Stats.Responsive
			retries += regs[slot].Stats.Retries
		}
		sp.SetAttr(
			trace.Int64("probed", probed),
			trace.Int64("responsive", responsive),
			trace.Int64("retries", retries),
		)
	}
	return nil
}
