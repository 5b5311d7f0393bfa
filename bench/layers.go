package main

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/coord"
	"whowas/internal/core"
	"whowas/internal/features"
	"whowas/internal/fetcher"
	"whowas/internal/htmlparse"
	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/scanner"
	"whowas/internal/simhash"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
)

// The traced pass is one fixed-size sweep over every layer, separate
// from the end-to-end runs and smaller than them: it attributes, it
// does not gate.
const (
	traceScale     = 512
	traceRounds    = 2
	traceAnalyseRn = 4
	webSample      = 48 // web hosts the micro-loops walk
)

// layerReport is the traced pass's result: one value per per-layer
// metric, plus the checks it made along the way.
type layerReport struct {
	Metrics   map[string]float64 `json:"metrics"`
	Spans     int                `json:"spans"`
	SpansPath string             `json:"spans_path"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

func (r *layerReport) set(name string, v float64) { r.Metrics[name] = v }

func (r *layerReport) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// countingDialer counts and times dials on their way to the cloud.
type countingDialer struct {
	inner cloudapi.Dialer
	dials atomic.Int64
	ns    atomic.Int64
}

func (d *countingDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	start := time.Now()
	c, err := d.inner.DialContext(ctx, network, address)
	d.ns.Add(time.Since(start).Nanoseconds())
	d.dials.Add(1)
	return c, err
}

// microResult is one micro-loop: cost per operation.
type microResult struct{ nsPerOp, allocsPerOp float64 }

// micro runs fn n times after one warm-up call.
func micro(n int, fn func(i int)) microResult {
	fn(0)
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	ns := time.Since(start).Nanoseconds()
	return microResult{float64(ns) / float64(n), float64(mallocs()-m0) / float64(n)}
}

func (r *layerReport) setMicro(name, unit string, m microResult) {
	div := 1.0
	if unit == "us" {
		div = 1e3
	}
	r.set(name+"_"+unit, m.nsPerOp/div)
	r.set(name+"_allocs", m.allocsPerOp)
}

// replayInputs are the micro-loops' inputs, a seeded sample of the
// staged replay's first round.
type replayInputs struct {
	cloud  *cloudapi.InProcess
	day    int
	web    []scanner.Result // responsive web hosts, plain and TLS
	http80 []scanner.Result // the ones among web with port 80 open
	closed []ipaddr.Addr    // probed addresses that are unbound
	bodies []string         // fetched page bodies
}

// sampleInputs cuts the replay's full lists down to the micro-loops'
// working sets.
func (in *replayInputs) sampleInputs(seed int64) error {
	// Plain and TLS-only hosts are sampled apart, in the replay's own
	// proportion and at least one of each: a TLS exchange costs several
	// plain ones, so a sample that happened to miss them (TLS-only hosts
	// are a few percent) would change what the loops measure, or leave
	// netsim.https_get_us with nothing to time.
	var plain, tlsOnly []scanner.Result
	for _, r := range in.web {
		if r.OpenPorts&store.PortHTTP != 0 {
			plain = append(plain, r)
		} else {
			tlsOnly = append(tlsOnly, r)
		}
	}
	in.closed = sample(in.closed, 256, seed, 12)
	in.bodies = sample(in.bodies, 64, seed, 13)
	if len(plain) == 0 || len(tlsOnly) == 0 || len(in.closed) == 0 || len(in.bodies) == 0 {
		return fmt.Errorf("replay found %d plain and %d TLS-only web hosts, %d closed addresses, %d bodies; need some of each",
			len(plain), len(tlsOnly), len(in.closed), len(in.bodies))
	}
	nTLS := webSample * len(tlsOnly) / len(in.web)
	nTLS = min(max(nTLS, 1), webSample-1)
	in.http80 = sample(plain, webSample-nTLS, seed, 11)
	in.web = append(append([]scanner.Result(nil), in.http80...), sample(tlsOnly, nTLS, seed, 14)...)
	return nil
}

// rawClient is a bare net/http client over a cloud's data plane, set up
// like the fetcher's transport.
func rawClient(dialer cloudapi.Dialer) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		DialContext:         dialer.DialContext,
		TLSClientConfig:     &tls.Config{InsecureSkipVerify: true}, // simulated hosts serve self-signed certs
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}, tr
}

// sample picks up to n elements of xs by a seeded stride walk.
func sample[T any](xs []T, n int, seed int64, stream uint64) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[mix(seed, uint64(i), stream)%uint64(len(xs))]
	}
	return out
}

// replayCampaign drives two rounds stage by stage from the harness —
// SetDay, scan, exchange per result, FromPage per page, PutBatch,
// EndRound — with one scanner worker and one fetch at a time, so spans
// nest without overlapping and a round's wall time decomposes into
// layers. The pipelined run of the same rounds must digest identically.
func replayCampaign(ctx context.Context, seed int64, rec *recorder, lr *layerReport) (*replayInputs, []core.RoundReport, error) {
	cfg := cloudapi.DefaultEC2Config(traceScale, cloudSeed(seed))
	days := core.DefaultRoundSchedule(cfg.Days)[:traceRounds]
	cloud, err := cloudapi.NewInProcess(cfg)
	if err != nil {
		return nil, nil, err
	}
	dial := &countingDialer{inner: cloud}
	scn, err := scanner.New(dial, scanner.Config{Rate: scanner.UnlimitedRate, Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	ftc, err := fetcher.New(dial, fetcher.Config{Workers: 1, Timeout: 10 * time.Second})
	if err != nil {
		return nil, nil, err
	}
	st := store.New(cfg.Name)
	in := &replayInputs{cloud: cloud, day: days[0]}

	var probed, probes, responsive, pages, recsN, fetchErrs, robots, bodyBytes int64
	var scanAllocs, fetchAllocs, featAllocs uint64
	var exchangeUS []float64
	replayStart := time.Now()
	for i, day := range days {
		root := rec.start(nil, "replay.round")
		sp := rec.start(root, "cloudapi.set_day")
		err := cloud.SetDay(ctx, day)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		if _, err := st.BeginRound(day); err != nil {
			return nil, nil, err
		}

		results := make(chan scanner.Result, int(cloud.Ranges().Total()))
		m0 := mallocs()
		sp = rec.start(root, "scanner.scan")
		stats, err := scn.ScanRangesInto(ctx, cloud.Ranges(), nil, results, 1)
		sp.end()
		scanAllocs += mallocs() - m0
		if err != nil {
			return nil, nil, err
		}
		close(results)
		probed += stats.Probed
		probes += stats.Probes
		responsive += stats.Responsive

		var fetched []fetcher.Page
		m0 = mallocs()
		stage := rec.start(root, "fetcher.stage")
		for res := range results {
			sp := rec.start(stage, "fetcher.exchange")
			start := time.Now()
			page := ftc.Exchange(ctx, res)
			us := usSince(start)
			sp.end()
			fetched = append(fetched, page)
			if res.OpenPorts&(store.PortHTTP|store.PortHTTPS) == 0 {
				continue
			}
			pages++
			exchangeUS = append(exchangeUS, us)
			if i == 0 {
				in.web = append(in.web, res)
			}
		}
		stage.end()
		fetchAllocs += mallocs() - m0

		recs := make([]*store.Record, 0, len(fetched))
		m0 = mallocs()
		stage = rec.start(root, "features.stage")
		for j := range fetched {
			page := &fetched[j]
			sp := rec.start(stage, "features.from_page")
			recs = append(recs, features.FromPage(page))
			sp.end()
			if page.Err != nil {
				fetchErrs++
			}
			if page.RobotsDenied {
				robots++
			}
			bodyBytes += int64(len(page.Body))
			if i == 0 && len(page.Body) > 0 {
				in.bodies = append(in.bodies, string(page.Body))
			}
		}
		stage.end()
		featAllocs += mallocs() - m0
		recsN += int64(len(recs))

		sp = rec.start(root, "store.put_batch")
		err = st.PutBatch(recs)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		st.AddProbed(stats.Probed)
		sp = rec.start(root, "store.end_round")
		err = st.EndRound()
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		ftc.CloseIdle()
		root.end()
	}
	replayWall := time.Since(replayStart)
	replayDigest, err := st.Digest()
	if err != nil {
		return nil, nil, err
	}

	// Closed addresses for the dial micro-loops: probed on the first
	// day and unbound.
	sim := cloudapi.Sim(cloud)
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		if !sim.StateAt(days[0], a).Bound {
			in.closed = append(in.closed, a)
		}
		return len(in.closed) < 4096
	})
	if err := in.sampleInputs(seed); err != nil {
		return nil, nil, err
	}

	// The same rounds through the program's own pipelined campaign.
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, nil, err
	}
	p.DisableMetrics()
	camp := core.FastCampaign()
	camp.RoundDays = days
	start := time.Now()
	if err := p.RunCampaign(ctx, camp); err != nil {
		return nil, nil, err
	}
	pipelinedWall := time.Since(start)
	pipelinedDigest, err := p.Store.Digest()
	if err != nil {
		return nil, nil, err
	}
	lr.check(replayDigest == pipelinedDigest, "staged replay digest %s != pipelined %s", replayDigest, pipelinedDigest)

	tot := totalsByName(rec.snapshot())
	n := float64(len(days))
	sec := func(name string) float64 { return tot[name].Total.Seconds() }
	lr.set("cloudapi.set_day_ms", sec("cloudapi.set_day")*1e3/n)
	lr.set("scanner.scan_s", sec("scanner.scan")/n)
	lr.set("scanner.ips_per_s", float64(probed)/sec("scanner.scan"))
	lr.set("scanner.probes", float64(probes)/n)
	lr.set("scanner.responsive_ratio", float64(responsive)/float64(probed))
	lr.set("scanner.allocs_per_ip", float64(scanAllocs)/float64(probed))
	lr.set("netsim.dials", float64(dial.dials.Load())/n)
	lr.set("netsim.dial_us_mean", float64(dial.ns.Load())/1e3/float64(dial.dials.Load()))
	lr.set("fetcher.exchange_s", sec("fetcher.exchange")/n)
	lr.set("fetcher.exchange_us_p50", median(exchangeUS))
	p95, err := percentile(exchangeUS, 95)
	if err != nil {
		return nil, nil, err
	}
	lr.set("fetcher.exchange_us_p95", p95)
	lr.set("fetcher.errors", float64(fetchErrs)/n)
	lr.set("fetcher.robots_denied", float64(robots)/n)
	lr.set("fetcher.body_bytes", float64(bodyBytes)/n)
	lr.set("fetcher.allocs_per_page", float64(fetchAllocs)/float64(pages))
	lr.set("features.from_page_s", sec("features.from_page")/n)
	lr.set("features.allocs_per_page", float64(featAllocs)/float64(recsN))
	lr.set("store.put_batch_ns_per_record", float64(tot["store.put_batch"].Total.Nanoseconds())/float64(recsN))
	lr.set("store.end_round_ms", sec("store.end_round")*1e3/n)
	accounted := sec("replay.round") - tot["replay.round"].Self.Seconds()
	share := accounted / sec("replay.round")
	lr.set("replay.accounted_share", share)
	lr.check(share >= 0.90, "replay spans account for %.3f of round wall, want >= 0.90", share)
	lr.set("replay.vs_pipelined_ratio", replayWall.Seconds()/pipelinedWall.Seconds())
	return in, p.RoundReports(), nil
}

// rawExchange is the substrate's side of one FetchIP: a connection to
// the simulated host, GET /robots.txt and GET / over it, bodies
// drained, connection dropped — net/http client, netsim's server, TLS
// and net.Pipe, with none of the fetcher's own work.
func rawExchange(ctx context.Context, client *http.Client, tr *http.Transport, res scanner.Result) error {
	scheme := "http"
	if res.OpenPorts&store.PortHTTP == 0 {
		scheme = "https"
	}
	for _, path := range []string{"/robots.txt", "/"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s://%s%s", scheme, res.IP, path), nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			continue // simulated HTTP-layer failures are part of the mix
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil {
			continue
		}
	}
	tr.CloseIdleConnections()
	return nil
}

// microLoops times each substrate and platform primitive in isolation
// on inputs sampled from the replay.
func microLoops(ctx context.Context, in *replayInputs, lr *layerReport) error {
	if err := in.cloud.SetDay(ctx, in.day); err != nil {
		return err
	}
	sim := cloudapi.Sim(in.cloud)
	web, http80, closed, bodies := in.web, in.http80, in.closed, in.bodies

	lr.setMicro("cloudsim.state_at", "ns", micro(200000, func(i int) {
		if i&1 == 0 {
			sim.StateAt(in.day, web[i%len(web)].IP)
		} else {
			sim.StateAt(in.day, closed[i%len(closed)])
		}
	}))
	lr.setMicro("netsim.dial_open", "ns", micro(4000, func(i int) {
		if c, err := in.cloud.DialContext(ctx, "tcp", fmt.Sprintf("%s:80", http80[i%len(http80)].IP)); err == nil {
			c.Close()
		}
	}))
	lr.setMicro("netsim.dial_closed", "ns", micro(20000, func(i int) {
		if c, err := in.cloud.DialContext(ctx, "tcp", fmt.Sprintf("%s:80", closed[i%len(closed)])); err == nil {
			c.Close()
		}
	}))
	lr.setMicro("websim.render_page", "us", micro(4000, func(i int) {
		if prof, rev, ok := sim.PageOn(in.day, web[i%len(web)].IP); ok {
			prof.RenderPage(rev)
		}
	}))
	scn, err := scanner.New(in.cloud, scanner.Config{Rate: scanner.UnlimitedRate, Workers: 1})
	if err != nil {
		return err
	}
	lr.setMicro("scanner.probe_once", "us", micro(4000, func(i int) {
		// Only the probe's cost matters here; it answers on an open port.
		_, _ = scn.ProbeOnce(ctx, http80[i%len(http80)].IP, 80, 2*time.Second)
	}))
	lr.setMicro("htmlparse.parse", "us", micro(4000, func(i int) {
		htmlparse.Parse(bodies[i%len(bodies)])
	}))
	lr.setMicro("simhash.hash", "us", micro(4000, func(i int) {
		simhash.Hash(bodies[i%len(bodies)])
	}))

	// Substrate exchange versus the fetcher's FetchIP over the same
	// hosts, each timed per host so the plain and TLS costs separate.
	client, tr := rawClient(in.cloud)
	ftc, err := fetcher.New(in.cloud, fetcher.Config{Workers: 1, Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	const reps = 6
	var plainNS, tlsNS, fetchNS int64
	var plainN, tlsN int
	var rawErr error
	m0 := mallocs()
	for r := 0; r < reps; r++ {
		for _, res := range web {
			start := time.Now()
			if err := rawExchange(ctx, client, tr, res); err != nil {
				rawErr = err
			}
			d := time.Since(start).Nanoseconds()
			if res.OpenPorts&store.PortHTTP != 0 {
				plainNS += d
				plainN++
			} else {
				tlsNS += d
				tlsN++
			}
		}
	}
	rawAllocs := mallocs() - m0
	if rawErr != nil {
		return rawErr
	}
	m0 = mallocs()
	for r := 0; r < reps; r++ {
		for _, res := range web {
			start := time.Now()
			ftc.FetchIP(ctx, res)
			ftc.CloseIdle()
			fetchNS += time.Since(start).Nanoseconds()
		}
	}
	fetchAllocs := mallocs() - m0
	ops := float64(reps * len(web))
	lr.set("netsim.http_get_us", float64(plainNS)/1e3/float64(plainN))
	lr.set("netsim.https_get_us", float64(tlsNS)/1e3/float64(tlsN))
	lr.set("netsim.get_allocs", float64(rawAllocs)/ops)
	lr.set("fetcher.fetch_ip_us", float64(fetchNS)/1e3/ops)
	lr.set("fetcher.fetch_ip_allocs", float64(fetchAllocs)/ops)
	lr.set("fetcher.substrate_share", float64(plainNS+tlsNS)/float64(fetchNS))
	return nil
}

// fleetLayers prices the distribution tax: the same primitives through
// cloudapi.Client, a single-process campaign over the wire, one shard
// and its merge, and a coordinator fleet.
func fleetLayers(ctx context.Context, seed int64, in *replayInputs, inproc []core.RoundReport, workdir string, lr *layerReport) (err error) {
	cfg := cloudapi.DefaultEC2Config(traceScale, cloudSeed(seed))
	days := core.DefaultRoundSchedule(cfg.Days)[:1]
	dir, err := os.MkdirTemp(workdir, "layers-fleet-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := metrics.NewRegistry()
	f, err := startFleet(ctx, cfg, days, filepath.Join(dir, "coord"), coord.Config{Metrics: reg})
	if err != nil {
		return err
	}
	defer func() {
		if serr := f.stop(); err == nil {
			err = serr
		}
	}()
	client, err := cloudapi.Dial(ctx, f.cloudAddr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := client.Close(); err == nil {
			err = cerr
		}
	}()

	var setDayErr error
	lr.set("cloudapi.wire_set_day_ms", micro(20, func(i int) {
		if err := client.SetDay(ctx, days[0]+i%2); err != nil {
			setDayErr = err
		}
	}).nsPerOp/1e6)
	if setDayErr != nil {
		return setDayErr
	}
	if err := client.SetDay(ctx, in.day); err != nil {
		return err
	}
	http80, closed := in.http80, in.closed
	lr.setMicro("cloudapi.wire_dial_open", "us", micro(2000, func(i int) {
		if c, err := client.DialContext(ctx, "tcp", fmt.Sprintf("%s:80", http80[i%len(http80)].IP)); err == nil {
			c.Close()
		}
	}))
	lr.setMicro("cloudapi.wire_dial_closed", "us", micro(2000, func(i int) {
		if c, err := client.DialContext(ctx, "tcp", fmt.Sprintf("%s:80", closed[i%len(closed)])); err == nil {
			c.Close()
		}
	}))
	hc, tr := rawClient(client)
	var rawErr error
	lr.setMicro("cloudapi.wire_http_get", "us", micro(4*len(http80), func(i int) {
		if err := rawExchange(ctx, hc, tr, http80[i%len(http80)]); err != nil {
			rawErr = err
		}
	}))
	if rawErr != nil {
		return rawErr
	}

	// One round, single process, over the wire. Its own probe session
	// keeps the cloud's transient-loss bookkeeping first-measurement
	// fresh for the fleet that follows.
	wire, err := core.NewPlatformCloud(client)
	if err != nil {
		return err
	}
	wire.DisableMetrics()
	camp := core.FastCampaign()
	camp.RoundDays = days
	start := time.Now()
	if err := wire.RunCampaign(cloudapi.WithProbeSession(ctx, "bench-wire"), camp); err != nil {
		return err
	}
	wireWall := time.Since(start)
	wireRecords := wire.RoundReports()[0].Records
	wireDigest, err := wire.Store.Digest()
	if err != nil {
		return err
	}
	lr.check(wireRecords == inproc[0].Records, "wire round stored %d records, in-process %d", wireRecords, inproc[0].Records)
	lr.set("cloudapi.wire_tax_ratio", wireWall.Seconds()/inproc[0].Total.Seconds())

	// One shard over the wire, then its merge onto colstore.
	runner, err := core.NewShardRunner(client, core.FastCampaign())
	if err != nil {
		return err
	}
	if err := client.SetDay(ctx, days[0]); err != nil {
		return err
	}
	start = time.Now()
	shard, err := runner.RunShard(ctx, runner.RegionNames()[:1])
	if err != nil {
		return err
	}
	lr.set("core.run_shard_s", time.Since(start).Seconds())
	lr.check(!shard.Degraded && len(shard.Records) > 0, "shard degraded=%v records=%d", shard.Degraded, len(shard.Records))
	backend, err := colstore.Open(filepath.Join(dir, "merge"), colstore.Options{CloudName: cfg.Name})
	if err != nil {
		return err
	}
	merged := store.NewWithBackend(cfg.Name, backend)
	start = time.Now()
	if _, err := merged.BeginRound(days[0]); err != nil {
		return err
	}
	if err := merged.PutBatch(shard.Records); err != nil {
		return err
	}
	merged.AddProbed(shard.Regions[0].Stats.Probed)
	if err := merged.EndRound(); err != nil {
		return err
	}
	lr.set("coord.merge_ms", msSince(start))
	if err := merged.Close(); err != nil {
		return err
	}

	// The fleet: coordinator, colstore, two workers, same cloud server.
	fleetWall, err := f.run(ctx, fleetWorkers())
	if err != nil {
		return err
	}
	fleetDigest, err := f.srv.Store().Digest()
	if err != nil {
		return err
	}
	lr.check(fleetDigest == wireDigest, "fleet digest %s != wire-only digest %s", fleetDigest, wireDigest)
	lr.set("coord.tax_ratio", fleetWall.Seconds()/wireWall.Seconds())
	counters := reg.Snapshot().Counters
	lr.set("coord.shards_assigned", float64(counters["coord.shards_assigned"]))
	lr.set("coord.shards_reassigned", float64(counters["coord.shards_reassigned"]))
	lr.set("coord.leases_expired", float64(counters["coord.leases_expired"]))
	lr.check(counters["coord.shards_assigned"] > 0 && counters["coord.shards_reassigned"] == 0 && counters["coord.leases_expired"] == 0,
		"coord counters assigned=%d reassigned=%d leases_expired=%d", counters["coord.shards_assigned"],
		counters["coord.shards_reassigned"], counters["coord.leases_expired"])
	return nil
}

// lookupUS times History on a raw backend once per key and returns the
// per-lookup µs, checking every answer.
func lookupUS(b store.Backend, keys []lookupKey, lr *layerReport) ([]float64, error) {
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		start := time.Now()
		got, err := b.History(k.IP)
		out = append(out, usSince(start))
		if err != nil {
			return nil, err
		}
		lr.check(checkHistory(k, got), "History(%s) returned %d records, want rounds %v", k.IP, len(got), k.Rounds)
	}
	return out, nil
}

// storeLayers prices the storage engines one call at a time: colstore's
// backend directly, and the memory / gob-file side.
func storeLayers(seed int64, workdir string, lr *layerReport) (err error) {
	dir, err := os.MkdirTemp(workdir, "layers-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	camp := genCampaign(seed, synthRounds, synthPool)
	hits := camp.hitKeys(2000, 7)

	// Memory store, through the frontend (this also stamps Round/Day
	// onto the shared records, which the raw Append below relies on).
	mem := store.New("bench")
	var putNS, endNS int64
	for r, recs := range camp.rounds {
		if _, err := mem.BeginRound(r * synthDayStep); err != nil {
			return err
		}
		start := time.Now()
		if err := mem.PutBatch(recs); err != nil {
			return err
		}
		putNS += time.Since(start).Nanoseconds()
		mem.AddProbed(int64(len(camp.pool)))
		start = time.Now()
		if err := mem.EndRound(); err != nil {
			return err
		}
		endNS += time.Since(start).Nanoseconds()
	}
	lr.set("store.mem_put_batch_ns_per_record", float64(putNS)/float64(camp.records))
	lr.set("store.mem_end_round_ms", float64(endNS)/1e6/synthRounds)
	us, err := lookupUS(mem.Backend(), hits, lr)
	if err != nil {
		return err
	}
	lr.set("store.mem_history_us_p50", median(us))
	memDigest, err := mem.Digest()
	if err != nil {
		return err
	}

	// The gob snapshot and its lazy file backend.
	path := filepath.Join(dir, "campaign.whowas")
	start := time.Now()
	if err := writeFile(path, mem.Save); err != nil {
		return err
	}
	lr.set("store.save_ms", msSince(start))
	start = time.Now()
	fb, err := store.OpenFileBackend(path)
	if err != nil {
		return err
	}
	lr.set("store.openfile_ms", msSince(start))
	us, err = lookupUS(fb, hits[:12], lr)
	if cerr := fb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lr.set("store.filebackend_history_us_p50", median(us))

	// colstore, called directly.
	segs := filepath.Join(dir, "segments")
	backend, err := colstore.Open(segs, colstore.Options{CloudName: "bench"})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := backend.Close(); err == nil {
			err = cerr
		}
	}()
	metas := make([]store.RoundMeta, synthRounds)
	start = time.Now()
	for r, recs := range camp.rounds {
		metas[r] = store.RoundMeta{Index: r, Day: r * synthDayStep, Probed: int64(len(camp.pool)), Records: len(recs)}
		if err := backend.Append(metas[r], recs); err != nil {
			return err
		}
	}
	lr.set("colstore.append_ms_per_round", msSince(start)/synthRounds)
	bytes, err := dirBytes(segs)
	if err != nil {
		return err
	}
	lr.set("colstore.bytes_per_record", float64(bytes)/float64(camp.records))
	colDigest, err := store.NewWithBackend("bench", backend).Digest()
	if err != nil {
		return err
	}
	lr.check(colDigest == memDigest, "colstore digest %s != memory digest %s", colDigest, memDigest)
	if err := backend.Close(); err != nil {
		return err
	}
	start = time.Now()
	if backend, err = colstore.Open(segs, colstore.Options{}); err != nil {
		return err
	}
	lr.set("colstore.open_ms", msSince(start))

	if us, err = lookupUS(backend, hits[:8], lr); err != nil {
		return err
	}
	lr.set("colstore.history_hit_us_p50", median(us))
	// A 16-IP hot set, touched once and then timed: what a cache that
	// remembers recent lookups would speed up.
	hot := camp.hitKeys(16, 9)
	if _, err = lookupUS(backend, hot, lr); err != nil {
		return err
	}
	if us, err = lookupUS(backend, hot, lr); err != nil {
		return err
	}
	lr.set("colstore.history_hot_us_p50", median(us))
	if us, err = lookupUS(backend, camp.inRangeMissKeys(100), lr); err != nil {
		return err
	}
	lr.set("colstore.history_miss_inrange_us_p50", median(us))
	if us, err = lookupUS(backend, camp.outOfRangeMissKeys(2000), lr); err != nil {
		return err
	}
	lr.set("colstore.history_miss_outrange_us_p50", median(us))

	start = time.Now()
	for r := 0; r < synthRounds; r++ {
		recs, err := backend.Records(r)
		if err != nil {
			return err
		}
		lr.check(len(recs) == metas[r].Records, "Records(%d) decoded %d records, want %d", r, len(recs), metas[r].Records)
	}
	lr.set("colstore.records_ms_per_round", msSince(start)/synthRounds)
	const rewrites = 4
	var rewriteNS int64
	for r := 0; r < rewrites; r++ {
		recs, err := backend.Records(r)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := backend.Rewrite(r, metas[r], recs); err != nil {
			return err
		}
		rewriteNS += time.Since(start).Nanoseconds()
	}
	lr.set("colstore.rewrite_ms_per_round", float64(rewriteNS)/1e6/rewrites)
	return nil
}

// analyseLayers runs analyst passes over a small collected campaign,
// untraced then traced, and reads the per-analysis spans.
func analyseLayers(ctx context.Context, seed int64, workdir string, rec *recorder, lr *layerReport) (err error) {
	dir, err := os.MkdirTemp(workdir, "layers-analyse-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := cloudapi.DefaultEC2Config(traceScale, cloudSeed(seed))
	p, err := collectOnColstore(ctx, cfg, traceAnalyseRn, dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := p.Store.Close(); err == nil {
			err = cerr
		}
	}()
	pass := func(r *recorder) (float64, error) {
		start := time.Now()
		_, _, err := analysisPass(ctx, p, cfg.Days, r)
		return time.Since(start).Seconds(), err
	}
	if _, err := pass(nil); err != nil { // warm-up: first labels
		return err
	}
	var untraced, traced []float64
	for i := 0; i < 3; i++ {
		s, err := pass(nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, s)
		if s, err = pass(rec); err != nil {
			return err
		}
		traced = append(traced, s)
	}
	// One more pass, untimed, with the program's own registry attached:
	// the cluster.* counts are read from it.
	reg := metrics.NewRegistry()
	p.Metrics = reg
	if _, err := pass(nil); err != nil {
		return err
	}
	lr.set("trace.overhead_ratio", median(traced)/median(untraced))

	tot := totalsByName(rec.snapshot())
	perPass := func(name string) float64 { return tot[name].Total.Seconds() / float64(tot[name].Count) }
	lr.set("carto.sweep_s", perPass("carto.sweep"))
	lr.set("cluster.run_s", perPass("cluster.run"))
	lr.set("analysis.churn_ms", perPass("analysis.churn")*1e3)
	lr.set("analysis.usage_ms", perPass("analysis.usage")*1e3)
	lr.set("analysis.census_ms", perPass("analysis.census")*1e3)
	lr.set("analysis.clusterstats_ms", perPass("analysis.clusterstats")*1e3)
	counters := reg.Snapshot().Counters
	lr.set("cluster.records_in", float64(counters["cluster.records_in"]))
	lr.set("cluster.clusters", float64(counters["cluster.final"]))
	lr.check(counters["cluster.records_in"] > 0 && counters["cluster.final"] == int64(p.Clusters.Final),
		"cluster registry records_in=%d final=%d, result final=%d", counters["cluster.records_in"], counters["cluster.final"], p.Clusters.Final)
	return nil
}

// runLayers is the traced pass: every per-layer metric, the checks
// behind them, and the span file.
func runLayers(ctx context.Context, seed int64, workdir, spansPath string) (*layerReport, error) {
	lr := &layerReport{Metrics: map[string]float64{}, SpansPath: spansPath}
	rec := newRecorder()
	in, inproc, err := replayCampaign(ctx, seed, rec, lr)
	if err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}
	if err := microLoops(ctx, in, lr); err != nil {
		return nil, fmt.Errorf("micro-loops: %w", err)
	}
	if err := fleetLayers(ctx, seed, in, inproc, workdir, lr); err != nil {
		return nil, fmt.Errorf("fleet layers: %w", err)
	}
	if err := storeLayers(seed, workdir, lr); err != nil {
		return nil, fmt.Errorf("store layers: %w", err)
	}
	if err := analyseLayers(ctx, seed, workdir, rec, lr); err != nil {
		return nil, fmt.Errorf("analyse layers: %w", err)
	}
	spans := rec.snapshot()
	lr.Spans = len(spans)
	if err := writeSpansJSONL(spansPath, spans); err != nil {
		return nil, err
	}
	return lr, nil
}
