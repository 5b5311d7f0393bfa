package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"whowas/internal/analysis"
	"whowas/internal/carto"
	"whowas/internal/cloudapi"
	"whowas/internal/cluster"
	"whowas/internal/coord"
	"whowas/internal/core"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
)

// Workload sizes. Each child does this fixed work once; the parent
// repeats children until --seconds of timed work has been measured, so
// both sides of a comparison run identical work per sample.
const (
	localScale  = 128 // 34 816 IPs, ~8 200 records per round
	localRounds = 4
	fleetScale  = 512 // 17 408 IPs, ~4 100 records per round
	fleetRounds = 2
	fleetData   = 2 // cloudd data listeners
	analyseRnds = 8 // at localScale, collected onto colstore

	storeHitKeys  = 20
	storeMissKeys = 100
)

// childReport is what one child process hands back on stdout: raw
// samples per metric name (the parent pools them across repeats and
// takes medians), identity facts that must agree across repeats of a
// seed, and the operations it attempted and failed.
type childReport struct {
	TimedS    float64              `json:"timed_s"`
	Records   int64                `json:"records"`
	Probed    int64                `json:"probed"`
	Digest    string               `json:"digest"`
	Samples   map[string][]float64 `json:"samples"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
}

func newChildReport() *childReport {
	return &childReport{Samples: map[string][]float64{}}
}

func (r *childReport) add(metric string, v float64) {
	r.Samples[metric] = append(r.Samples[metric], v)
}

// check counts one attempted operation and records a failure when ok is
// false.
func (r *childReport) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// cloudSeed keeps seed 0 from selecting a config default.
func cloudSeed(seed int64) int64 { return seed + 20131130 }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// peakRSSMiB reads this process's high-water resident set from
// /proc/self/status (VmHWM, kB): the peak since resetPeakRSS.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS ends a workload's set-up: it hands the set-up's garbage
// back to the operating system and resets the high-water mark to what is
// resident now (clear_refs "5", proc(5)), so that peak_rss_mb is the
// timed section's peak and not the larger of it and the set-up's. Where
// the kernel refuses the reset the set-up stays inside the reading; that
// is said on standard error and is no failure.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "bench: peak_rss_mb includes set-up, VmHWM not reset: %v\n", err)
	}
}

// dirBytes sums the regular files directly inside dir (a colstore
// directory is flat).
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// timeDigests calls Store.Digest until at least minCalls calls and
// budget have been spent, adding one digest_ms sample per call, and
// returns the digest.
func timeDigests(st *store.Store, rep *childReport, minCalls int, budget time.Duration) (string, error) {
	var digest string
	runtime.GC()
	begin := time.Now()
	for i := 0; i < minCalls || time.Since(begin) < budget; i++ {
		start := time.Now()
		d, err := st.Digest()
		if err != nil {
			return "", err
		}
		rep.add("digest_ms", msSince(start))
		rep.check(digest == "" || d == digest, "digest changed between calls: %s then %s", digest, d)
		digest = d
	}
	return digest, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// finish stamps the facts every workload reports the same way.
func (r *childReport) finish() error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.add("peak_rss_mb", rss)
	return nil
}

// roundSamples folds a campaign's round reports into the report: one
// op_ms_p50 and one records_per_s sample per round, the records/probed
// identity, and a failed operation per degraded round.
func (r *childReport) roundSamples(reports []core.RoundReport, want int) {
	r.check(len(reports) == want, "campaign finished %d of %d rounds", len(reports), want)
	for _, rr := range reports {
		r.add("op_ms_p50", float64(rr.Total.Nanoseconds())/1e6)
		r.add("records_per_s", float64(rr.Records)/rr.Total.Seconds())
		r.Records += rr.Records
		r.Probed += rr.Probed
		r.check(!rr.Degraded && rr.Records > 0, "round %d degraded=%v records=%d", rr.Round, rr.Degraded, rr.Records)
	}
}

// runCampaignLocal is the paper's core loop in one process: in-process
// cloud, memory store, the program's own FastCampaign pools.
func runCampaignLocal(ctx context.Context, seed int64) (*childReport, error) {
	rep := newChildReport()
	setup := time.Now()
	cfg := cloudapi.DefaultEC2Config(localScale, cloudSeed(seed))
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	p.DisableMetrics()
	camp := core.FastCampaign()
	camp.RoundDays = core.DefaultRoundSchedule(cfg.Days)[:localRounds]
	rep.add("setup_s", time.Since(setup).Seconds())
	resetPeakRSS()

	m0 := mallocs()
	start := time.Now()
	if err := p.RunCampaign(ctx, camp); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	allocs := mallocs() - m0
	rep.TimedS = wall.Seconds()

	rep.roundSamples(p.RoundReports(), localRounds)
	if rep.Records == 0 {
		return nil, fmt.Errorf("campaign-local stored no records")
	}
	rep.add("allocs_per_record", float64(allocs)/float64(rep.Records))

	if rep.Digest, err = timeDigests(p.Store, rep, 3, 100*time.Millisecond); err != nil {
		return nil, err
	}
	// A memory store's durable form is its Save snapshot (whowas -out).
	var saved countWriter
	if err := p.Store.Save(&saved); err != nil {
		return nil, err
	}
	rep.add("bytes_per_record", float64(saved)/float64(rep.Records))
	return rep, rep.finish()
}

// fleet is a cloudd wire server, a coordinator over a colstore
// directory and its workers, all inside this process over loopback.
type fleet struct {
	cloudd    *cloudapi.Server
	cloudAddr string
	srv       *coord.Server
	addr      string
}

func startFleet(ctx context.Context, cfg cloudapi.SimConfig, days []int, dir string, cc coord.Config) (*fleet, error) {
	backing, err := cloudapi.NewInProcess(cfg)
	if err != nil {
		return nil, err
	}
	f := &fleet{cloudd: cloudapi.NewServer(backing, cloudapi.ServerConfig{DataListeners: fleetData})}
	if f.cloudAddr, err = f.cloudd.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	cc.CloudAddr, cc.Rounds, cc.StoreDir = f.cloudAddr, days, dir
	if f.srv, err = coord.NewServer(ctx, cc); err != nil {
		f.stop()
		return nil, err
	}
	if f.addr, err = f.srv.Start("127.0.0.1:0"); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts the coordinator and the cloud server down; it is safe on a
// half-started fleet and is called on every exit path.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	if f.srv != nil {
		first = f.srv.Shutdown(ctx)
	}
	if err := f.cloudd.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// run drives the campaign with n workers and returns its wall time:
// from the first worker's start until the coordinator's last round is
// merged.
func (f *fleet) run(ctx context.Context, n int) (time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := make([]*coord.Worker, n)
	for i := range workers {
		w, err := coord.NewWorker(coord.WorkerConfig{Coordinator: f.addr, ID: fmt.Sprintf("bench-w%d", i)})
		if err != nil {
			return 0, err
		}
		workers[i] = w
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *coord.Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
			if cerr := w.Close(); errs[i] == nil {
				errs[i] = cerr
			}
		}(i, w)
	}
	runErr := f.srv.Run(ctx)
	wall := time.Since(start)
	if runErr == nil {
		runErr = f.srv.DrainWorkers(ctx)
	}
	if runErr != nil {
		cancel() // release workers still polling a dead coordinator
	}
	wg.Wait()
	if runErr != nil {
		return 0, runErr
	}
	for _, err := range errs {
		// A worker whose work loop ends cancels its own heartbeat, and a
		// heartbeat caught in flight by that cancel comes back as the
		// worker's error (coord.Worker.session; about one campaign in a
		// hundred here). ctx was not cancelled, the coordinator has
		// finished every round and drained its workers, and the caller
		// checks the store's digest, so that one error is not a failure.
		if err != nil && !errors.Is(err, context.Canceled) {
			return 0, err
		}
	}
	return wall, nil
}

func fleetWorkers() int { return min(runtime.NumCPU(), 2) }

// runCampaignFleet runs the same platform code through the cloudapi TCP
// wire, the coordinator and a colstore directory. Set-up includes the
// in-process reference run whose digest the fleet must reproduce.
func runCampaignFleet(ctx context.Context, seed int64, workdir string) (rep *childReport, err error) {
	rep = newChildReport()
	setup := time.Now()
	cfg := cloudapi.DefaultEC2Config(fleetScale, cloudSeed(seed))
	days := core.DefaultRoundSchedule(cfg.Days)[:fleetRounds]

	ref, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	ref.DisableMetrics()
	camp := core.FastCampaign()
	camp.RoundDays = days
	if err := ref.RunCampaign(ctx, camp); err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	refDigest, err := ref.Store.Digest()
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(workdir, "fleet-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(ctx, cfg, days, dir, coord.Config{})
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := f.stop(); err == nil {
			err = serr
		}
	}()
	rep.add("setup_s", time.Since(setup).Seconds())
	resetPeakRSS()

	m0 := mallocs()
	wall, err := f.run(ctx, fleetWorkers())
	if err != nil {
		return nil, err
	}
	allocs := mallocs() - m0
	rep.TimedS = wall.Seconds()

	rep.roundSamples(f.srv.Reports(), fleetRounds)
	if rep.Records == 0 {
		return nil, fmt.Errorf("campaign-fleet stored no records")
	}
	rep.add("allocs_per_record", float64(allocs)/float64(rep.Records))

	if rep.Digest, err = timeDigests(f.srv.Store(), rep, 3, 100*time.Millisecond); err != nil {
		return nil, err
	}
	rep.check(rep.Digest == refDigest, "fleet digest %s != in-process reference %s", rep.Digest, refDigest)
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	rep.add("bytes_per_record", float64(bytes)/float64(rep.Records))
	return rep, rep.finish()
}

// timeLookups walks the same keys in repeated passes, one client, one
// lookup at a time, timing each and checking each answer, until budget
// is spent (at least two passes). It returns the latencies in µs, pass
// after pass in key order, so sample i belongs to key i mod len(keys).
func timeLookups(st *store.Store, keys []lookupKey, budget time.Duration, rep *childReport) []float64 {
	var us []float64
	runtime.GC()
	begin := time.Now()
	for pass := 0; pass < 2 || time.Since(begin) < budget; pass++ {
		for _, k := range keys {
			start := time.Now()
			got := st.History(k.IP)
			us = append(us, usSince(start))
			rep.check(checkHistory(k, got), "History(%s) returned %d records, want rounds %v", k.IP, len(got), k.Rounds)
		}
	}
	return us
}

// ingestColstore writes the campaign into a fresh colstore directory
// and returns the open store.
func ingestColstore(camp *synthCampaign, dir string) (*store.Store, error) {
	backend, err := colstore.Open(dir, colstore.Options{CloudName: "bench"})
	if err != nil {
		return nil, err
	}
	st := store.NewWithBackend("bench", backend)
	if err := camp.ingest(st); err != nil {
		return nil, errors.Join(err, st.Close())
	}
	return st, nil
}

// runStoreMixed exercises the store layer alone, writes beside reads,
// on the seeded synthetic campaign. Phase budgets are shares of the
// run's --seconds; phase minimums keep every sample set non-trivial
// when the machine is slow.
func runStoreMixed(seed int64, seconds float64, workdir string) (rep *childReport, err error) {
	rep = newChildReport()
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	root, err := os.MkdirTemp(workdir, "store-mixed-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set-up: generate the campaign and ingest the memory-backed
	// reference whose digest colstore must reproduce. Done seven times
	// so setup_s is a median.
	var camp *synthCampaign
	var refDigest string
	for i := 0; i < 7; i++ {
		setup := time.Now()
		camp = genCampaign(seed, synthRounds, synthPool)
		mem := store.New("bench")
		if err := camp.ingest(mem); err != nil {
			return nil, err
		}
		d, err := mem.Digest()
		if err != nil {
			return nil, err
		}
		rep.check(refDigest == "" || d == refDigest, "generator not deterministic: digest %s then %s", refDigest, d)
		refDigest = d
		rep.add("setup_s", time.Since(setup).Seconds())
	}
	rep.Records, rep.Probed = camp.records, int64(synthRounds*synthPool)
	resetPeakRSS()
	timedStart := time.Now()

	// Ingest into fresh directories; the last one serves the reads.
	var dir string
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin) < share(0.2); i++ {
		dir = filepath.Join(root, fmt.Sprintf("ingest-%d", i))
		m0 := mallocs()
		start := time.Now()
		st, err := ingestColstore(camp, dir)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		rep.add("allocs_per_record", float64(mallocs()-m0)/float64(camp.records))
		rep.add("records_per_s", float64(camp.records)/wall.Seconds())
		rep.check(st.NumRounds() == synthRounds, "ingest left %d rounds, want %d", st.NumRounds(), synthRounds)
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	rep.add("bytes_per_record", float64(bytes)/float64(camp.records))

	// Reopen, as a query process would.
	start := time.Now()
	backend, err := colstore.Open(dir, colstore.Options{})
	if err != nil {
		return nil, err
	}
	st := store.NewWithBackend("bench", backend)
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	rep.add("reopen_ms", msSince(start))

	hitUS := timeLookups(st, camp.hitKeys(storeHitKeys, 7), share(0.35), rep)
	for _, us := range hitUS {
		rep.add("op_ms_p50", us/1e3)
	}
	// Beside the median, the highest percentile the sample supports.
	if pct := highestPercentile(len(hitUS)); pct > 0 {
		tail, err := percentile(hitUS, float64(pct))
		if err != nil {
			return nil, err
		}
		rep.add("history_hit_tail_pct", float64(pct))
		rep.add("history_hit_tail_us", tail)
	}
	rep.Samples["history_miss_us"] = timeLookups(st, camp.inRangeMissKeys(storeMissKeys), share(0.04), rep)
	rep.Samples["history_miss_outrange_us"] = timeLookups(st, camp.outOfRangeMissKeys(storeMissKeys), share(0.01), rep)

	// Full scans: 12 segments against a 2-round LRU, so every pass
	// decodes every segment.
	begin = time.Now()
	for i := 0; i < 2 || time.Since(begin) < share(0.15); i++ {
		var n int64
		start := time.Now()
		st.EachRound(func(r *store.Round) bool {
			n += int64(r.Len())
			return true
		})
		rep.add("scan_records_per_s", float64(n)/time.Since(start).Seconds())
		rep.check(n == camp.records, "scan pass saw %d records, want %d", n, camp.records)
	}

	if rep.Digest, err = timeDigests(st, rep, 2, share(0.2)); err != nil {
		return nil, err
	}
	rep.check(rep.Digest == refDigest, "colstore digest %s != memory digest %s", rep.Digest, refDigest)
	rep.TimedS = time.Since(timedStart).Seconds()
	return rep, rep.finish()
}

// analysisPass is one analyst session over a collected campaign:
// cartography, clustering, then the analysis suite. Spans are recorded
// when rec is non-nil (the traced pass); the timed runs pass nil.
func analysisPass(ctx context.Context, p *core.Platform, days int, rec *recorder) (cartoS, clusterS float64, err error) {
	root := rec.start(nil, "analyse.pass")
	defer root.end()
	timed := func(name string, fn func() error) (float64, error) {
		sp := rec.start(root, name)
		start := time.Now()
		err := fn()
		d := time.Since(start).Seconds()
		sp.end()
		return d, err
	}
	if cartoS, err = timed("carto.sweep", func() error {
		return p.RunCartography(ctx, carto.Config{Rate: 1e6})
	}); err != nil {
		return 0, 0, err
	}
	if clusterS, err = timed("cluster.run", func() error {
		return p.RunClustering(cluster.Config{})
	}); err != nil {
		return 0, 0, err
	}
	for _, a := range []struct {
		name string
		fn   func()
	}{
		{"analysis.churn", func() { analysis.Churn(p.Store) }},
		{"analysis.usage", func() { analysis.Usage(p.Store) }},
		{"analysis.census", func() {
			analysis.Census(p.Store)
			analysis.Trackers(p.Store)
		}},
		{"analysis.clusterstats", func() {
			analysis.Clustering(p.Store, p.Clusters)
			analysis.ClusterAvailability(p.Store, p.Clusters)
			analysis.SizePatterns(p.Store, p.Clusters, days)
			analysis.IPUptimes(p.Clusters)
			analysis.ClusterUptimes(p.Clusters)
			analysis.TopClusters(p.Clusters, 10, p.Cloud.RegionOf)
		}},
	} {
		if _, err := timed(a.name, func() error { a.fn(); return nil }); err != nil {
			return 0, 0, err
		}
	}
	return cartoS, clusterS, nil
}

// collectOnColstore runs a campaign whose store is a colstore
// directory: the analyse workload's (and the traced analyse group's)
// set-up.
func collectOnColstore(ctx context.Context, cfg cloudapi.SimConfig, rounds int, dir string) (*core.Platform, error) {
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	p.DisableMetrics()
	backend, err := colstore.Open(dir, colstore.Options{CloudName: cfg.Name})
	if err != nil {
		return nil, err
	}
	if err := p.UseStoreBackend(backend); err != nil {
		return nil, err
	}
	camp := core.FastCampaign()
	camp.RoundDays = core.DefaultRoundSchedule(cfg.Days)[:rounds]
	if err := p.RunCampaign(ctx, camp); err != nil {
		return nil, errors.Join(err, p.Store.Close())
	}
	return p, nil
}

// runAnalyse times analyst passes over a campaign collected (in
// set-up) onto colstore. Scanner, fetcher, substrate and wire do
// nothing in the timed section.
func runAnalyse(ctx context.Context, seed int64, seconds float64, workdir string) (rep *childReport, err error) {
	rep = newChildReport()
	setup := time.Now()
	dir, err := os.MkdirTemp(workdir, "analyse-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := cloudapi.DefaultEC2Config(localScale, cloudSeed(seed))
	p, err := collectOnColstore(ctx, cfg, analyseRnds, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := p.Store.Close(); err == nil {
			err = cerr
		}
	}()
	for _, rr := range p.RoundReports() {
		rep.Records += rr.Records
		rep.Probed += rr.Probed
	}
	if rep.Records == 0 {
		return nil, fmt.Errorf("analyse collected no records")
	}
	rep.add("setup_s", time.Since(setup).Seconds())
	resetPeakRSS()

	// The first pass warms the labels (later passes rewrite identical
	// ones) and is discarded.
	timedStart := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	clusters, passDigest := -1, ""
	for i := 0; i < 4 || time.Since(timedStart) < budget; i++ {
		m0 := mallocs()
		start := time.Now()
		cartoS, clusterS, err := analysisPass(ctx, p, cfg.Days, nil)
		wall := time.Since(start)
		rep.check(err == nil, "analysis pass %d: %v", i, err)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			clusters = p.Clusters.Final
			if passDigest, err = p.Store.Digest(); err != nil {
				return nil, err
			}
			continue
		}
		rep.add("allocs_per_record", float64(mallocs()-m0)/float64(rep.Records))
		rep.add("op_ms_p50", float64(wall.Nanoseconds())/1e6)
		rep.add("records_per_s", float64(rep.Records)/wall.Seconds())
		rep.add("carto_s", cartoS)
		rep.add("cluster_s", clusterS)
		rep.check(p.Clusters.Final == clusters && clusters > 0, "pass %d found %d clusters, first pass %d", i, p.Clusters.Final, clusters)
	}
	rep.TimedS = time.Since(timedStart).Seconds()

	if rep.Digest, err = timeDigests(p.Store, rep, 3, 100*time.Millisecond); err != nil {
		return nil, err
	}
	rep.check(rep.Digest == passDigest, "digest after the last pass %s != after the first %s", rep.Digest, passDigest)
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	rep.add("bytes_per_record", float64(bytes)/float64(rep.Records))
	return rep, rep.finish()
}

// runChild runs one repeat of an end-to-end workload in this process.
func runChild(ctx context.Context, workload string, seed int64, seconds float64, workdir string) (*childReport, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	var rep *childReport
	var err error
	switch workload {
	case "campaign-local":
		rep, err = runCampaignLocal(ctx, seed)
	case "campaign-fleet":
		rep, err = runCampaignFleet(ctx, seed, workdir)
	case "store-mixed":
		rep, err = runStoreMixed(seed, seconds, workdir)
	case "analyse":
		rep, err = runAnalyse(ctx, seed, seconds, workdir)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return rep, nil
}
