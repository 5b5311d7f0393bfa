// Command whowas-coordinator runs the distributed campaign's control
// plane: it owns the round schedule, assigns region shards to a fleet
// of `whowas -worker` processes, leases each worker a slice of the
// global §7 probe-rate budget (a lease that stops being renewed
// expires, its tokens return to the pool, and its shards are re-queued
// for the survivors), and merges the submitted shards into the one
// round store — producing a store digest byte-identical to a
// single-process `whowas` run of the same cloud and schedule, for any
// worker count.
//
// Usage:
//
//	whowas-cloudd -scale 4096 -seed 7 &
//	whowas-coordinator -cloud-addr 127.0.0.1:8390 -rounds 3 -out ec2.whowas &
//	whowas -worker -coordinator-addr 127.0.0.1:8395 -worker-id w1 &
//	whowas -worker -coordinator-addr 127.0.0.1:8395 -worker-id w2
//
// The coordinator's address also serves the standard ops surface
// (/healthz, /metrics, /rounds, pprof) plus /coord/status and
// /coord/fleet for fleet introspection: workers piggyback metrics
// snapshots on their heartbeats and submissions, and sampled spans on
// their submissions, and the coordinator aggregates them into a live fleet view
// (`whowas-query fleet` renders it), a worker-labeled Prometheus
// exposition on /metrics/prom, and — with -trace-journal — one merged
// span journal that reconstructs the distributed campaign
// (`whowas-query trace` reads it).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"whowas/internal/coord"
	"whowas/internal/core"
	"whowas/internal/faults"
	"whowas/internal/metrics"
	"whowas/internal/ops"
	"whowas/internal/trace"
)

type options struct {
	cloudAddr    string
	addr         string
	maxRounds    int
	shards       int
	maxWorkers   int
	rate         float64
	leaseTTL     time.Duration
	roundTimeout time.Duration
	retries      int
	keepBodies   bool
	faultsPath   string
	out          string
	storeDir     string
	metricsPath  string
	journalPath  string
	drainWait    time.Duration
	quiet        bool
}

func main() {
	var o options
	flag.StringVar(&o.cloudAddr, "cloud-addr", "", "control address of the shared whowas-cloudd daemon (required)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8395", "address to serve the coordinator protocol and ops surface on (use :0 for an ephemeral port)")
	flag.IntVar(&o.maxRounds, "rounds", 0, "cap the number of rounds (0 = full §6 schedule)")
	flag.IntVar(&o.shards, "shards", 0, "region shards per round (0 = one per region; digests are identical for any value)")
	flag.IntVar(&o.maxWorkers, "max-workers", coord.DefaultMaxWorkers, "fleet size bound; the global probe budget is leased in equal slices of this many")
	flag.Float64Var(&o.rate, "rate", 0, "global probe budget shared by the whole fleet, probes/sec (0 = simulation speed)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", coord.DefaultLeaseTTL, "worker lease lifetime; a worker silent this long is declared dead and its shards re-assigned")
	flag.DurationVar(&o.roundTimeout, "round-timeout", 0, "per-round deadline; a round missing shards at the deadline finalizes degraded (0 = none)")
	flag.IntVar(&o.retries, "retries", 0, "probe/fetch attempts per target, forwarded to workers (0 = single attempt)")
	flag.BoolVar(&o.keepBodies, "keep-bodies", false, "retain raw page bodies in the store (and on the wire)")
	flag.StringVar(&o.faultsPath, "faults", "", "inject faults from this JSON scenario on every worker")
	flag.StringVar(&o.out, "out", "", "write the merged store (gob) to this path")
	flag.StringVar(&o.storeDir, "store-dir", "", "back the merged store with the on-disk columnar engine at this directory (one segment file per round)")
	flag.StringVar(&o.metricsPath, "metrics", "", "write the campaign metrics report (round reports + registry snapshot) as JSON to this path")
	flag.StringVar(&o.journalPath, "trace-journal", "", "append the fleet's merged spans (worker spans stamped with worker identity under each round) as JSONL to this path")
	flag.DurationVar(&o.drainWait, "drain-wait", 10*time.Second, "how long to wait after the last round for workers to be told the campaign is done")
	flag.BoolVar(&o.quiet, "q", false, "suppress per-round progress")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "whowas-coordinator: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.cloudAddr == "" {
		return fmt.Errorf("-cloud-addr is required (start whowas-cloudd first)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := coord.Config{
		CloudAddr:    o.cloudAddr,
		MaxRounds:    o.maxRounds,
		Shards:       o.shards,
		MaxWorkers:   o.maxWorkers,
		Rate:         o.rate,
		LeaseTTL:     o.leaseTTL,
		RoundTimeout: o.roundTimeout,
		Attempts:     o.retries,
		KeepBodies:   o.keepBodies,
		StoreDir:     o.storeDir,
		Metrics:      metrics.NewRegistry(),
	}
	if o.storeDir != "" {
		fmt.Printf("columnar store at %s\n", o.storeDir)
	}
	if o.journalPath != "" {
		j, err := trace.CreateJournal(o.journalPath)
		if err != nil {
			return err
		}
		cfg.Tracer = trace.New(trace.Config{Journal: j})
		defer func() {
			if err := cfg.Tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "whowas-coordinator: closing trace journal: %v\n", err)
			} else {
				fmt.Printf("trace journal written to %s\n", o.journalPath)
			}
		}()
	}
	var err error
	if cfg.Faults, err = faults.LoadFlag(os.Stdout, o.faultsPath); err != nil {
		return err
	}
	if !o.quiet {
		cfg.Observer = func(r core.RoundReport) { fmt.Println(" ", r.ProgressLine()) }
	}

	srv, err := coord.NewServer(ctx, cfg)
	if err != nil {
		return err
	}
	defer ops.Stop(srv)

	addr, err := srv.Start(o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("coordinator listening on http://%s (cloud %s, %d rounds, %d shards/round, budget %s)\n",
		addr, o.cloudAddr, srv.ScheduledRounds(), srv.NumShards(), budgetLabel(o.rate))

	if err := srv.Run(ctx); err != nil {
		return err
	}
	dctx, cancel := context.WithTimeout(ctx, o.drainWait)
	defer cancel()
	if err := srv.DrainWorkers(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "whowas-coordinator: draining workers: %v\n", err)
	}

	st := srv.Store()
	if err := core.AnnounceDigest(os.Stdout, st); err != nil {
		return err
	}
	report := core.CampaignReport{Cloud: st.CloudName, Rounds: srv.Reports(), Metrics: cfg.Metrics.Snapshot()}
	return core.WriteOutputs(os.Stdout, st, o.out, report, o.metricsPath)
}

func budgetLabel(rate float64) string {
	if rate <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.0f pps", rate)
}
