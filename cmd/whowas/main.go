// Command whowas runs a WhoWas measurement campaign against a
// simulated IaaS cloud (EC2- or Azure-like; see DESIGN.md for the
// substitution rationale), then saves the round store for later
// querying with whowas-query.
//
// Usage:
//
//	whowas -cloud ec2 -scale 256 -out ec2.whowas
//	whowas -cloud azure -scale 64 -rounds 10 -cluster=false
//	whowas -faults scenarios/chaos.json -retries 3 -round-timeout 30s
//	whowas -cloud-addr 127.0.0.1:8390 -rounds 3
//
// With -cloud-addr the campaign runs over the wire against a live
// whowas-cloudd daemon instead of an in-process simulator; a seeded
// campaign produces a byte-identical store digest either way.
//
// The campaign follows the paper's §6 schedule (a round every 3 days,
// then daily for the final month) unless -rounds caps the round count.
// -faults replays the campaign through the deterministic
// fault-injection layer (internal/faults); pair it with -retries and
// -round-timeout to exercise the pipeline's resilience, and -metrics
// to see the faults.* injection counters next to what was recovered.
//
// Live observability: -ops-addr serves /healthz, /metrics,
// /metrics/prom, /rounds, /trace/* and /debug/pprof/* while the
// campaign runs, and -trace-journal records every completed span as
// JSONL for whowas-query trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"whowas/internal/carto"
	"whowas/internal/cloudapi"
	"whowas/internal/cluster"
	"whowas/internal/core"
	"whowas/internal/faults"
	"whowas/internal/ipaddr"
	"whowas/internal/ops"
	"whowas/internal/store/colstore"
	"whowas/internal/trace"
)

// options collects every flag-driven knob of one CLI invocation.
type options struct {
	cloudName    string
	cloudAddr    string
	scale        int
	seed         int64
	out          string
	storeDir     string
	maxRounds    int
	doCluster    bool
	doCarto      bool
	exclude      string
	quiet        bool
	metricsPath  string
	faultsPath   string
	retries      int
	roundTimeout time.Duration
	opsAddr      string
	journalPath  string
	shards       int
	worker       bool
	coordAddr    string
	workerID     string
}

func main() {
	var o options
	flag.StringVar(&o.cloudName, "cloud", "ec2", "cloud profile: ec2 or azure")
	flag.StringVar(&o.cloudAddr, "cloud-addr", "", "measure a running whowas-cloudd at this control address instead of an in-process cloud (-cloud/-scale/-seed are then ignored)")
	flag.IntVar(&o.scale, "scale", 256, "address-space scale divisor (larger = smaller cloud)")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	flag.StringVar(&o.out, "out", "", "write the collected store (gob) to this path")
	flag.StringVar(&o.storeDir, "store-dir", "", "back the store with the on-disk columnar engine at this directory (one segment file per round; bounds memory on large campaigns)")
	flag.IntVar(&o.maxRounds, "rounds", 0, "cap the number of rounds (0 = full §6 schedule)")
	flag.BoolVar(&o.doCluster, "cluster", true, "run the §5 clustering after collection")
	flag.BoolVar(&o.doCarto, "carto", true, "run the §5 VPC cartography (EC2 only)")
	flag.StringVar(&o.exclude, "exclude", "", "comma-separated IPs to exclude from probing (opt-outs)")
	flag.BoolVar(&o.quiet, "q", false, "suppress per-round progress")
	flag.StringVar(&o.metricsPath, "metrics", "", "write the campaign metrics report (round reports + registry snapshot) as JSON to this path")
	flag.StringVar(&o.faultsPath, "faults", "", "inject faults from this JSON scenario (see internal/faults)")
	flag.IntVar(&o.retries, "retries", 0, "probe/fetch attempts per target (0 = single attempt)")
	flag.DurationVar(&o.roundTimeout, "round-timeout", 0, "per-round deadline; an exceeded round finalizes degraded with partial records (0 = none)")
	flag.StringVar(&o.opsAddr, "ops-addr", "", "serve the live ops endpoint (/healthz, /metrics, /trace/*, pprof) on this address")
	flag.StringVar(&o.journalPath, "trace-journal", "", "append completed spans as JSONL to this path (crash-safe; read with whowas-query trace)")
	flag.IntVar(&o.shards, "pipeline-shards", 0, "round pipeline region lanes (0 = one per region, 1 = unsharded; store contents are identical either way)")
	flag.BoolVar(&o.worker, "worker", false, "run as a distributed-campaign worker: lease a probe-budget slice from a whowas-coordinator and execute assigned shards until the campaign is done")
	flag.StringVar(&o.coordAddr, "coordinator-addr", "", "coordinator protocol address (required with -worker)")
	flag.StringVar(&o.workerID, "worker-id", "", "worker identity for leasing and shard ownership (default: PID-derived; must be unique per fleet)")
	flag.Parse()
	if o.worker {
		if stray := strayWorkerFlags(); len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "whowas: %s set with -worker: the coordinator owns campaign settings; a worker takes only -coordinator-addr, -worker-id, -q, -ops-addr and -metrics\n",
				strings.Join(stray, " "))
			os.Exit(2)
		}
	}

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "whowas: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if o.worker {
		return runWorker(ctx, o)
	}

	var p *core.Platform
	if o.cloudAddr != "" {
		client, err := cloudapi.Dial(ctx, o.cloudAddr)
		if err != nil {
			return err
		}
		defer client.Close()
		info := client.Info()
		fmt.Printf("measuring cloud %q at %s (%d probed IPs, %d-day campaign, %d data listeners)...\n",
			info.Name, o.cloudAddr, client.Ranges().Total(), info.Days, len(info.DataAddrs))
		p, err = core.NewPlatformCloud(client)
		if err != nil {
			return err
		}
	} else {
		cfg, err := cloudapi.ProfileConfig(o.cloudName, o.scale, o.seed)
		if err != nil {
			return err
		}
		p, err = core.NewPlatform(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("building %s-like cloud (%d probed IPs, %d-day campaign)...\n",
			o.cloudName, p.Cloud.Ranges().Total(), cfg.Days)
	}

	if o.storeDir != "" {
		backend, err := colstore.Open(o.storeDir, colstore.Options{CloudName: p.Store.CloudName})
		if err != nil {
			return err
		}
		if err := p.UseStoreBackend(backend); err != nil {
			return err
		}
		fmt.Printf("columnar store at %s\n", o.storeDir)
	}
	defer func() {
		if err := p.Store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "whowas: closing store: %v\n", err)
		}
	}()

	if o.journalPath != "" || o.opsAddr != "" {
		tcfg := trace.Config{}
		if o.journalPath != "" {
			j, err := trace.CreateJournal(o.journalPath)
			if err != nil {
				return err
			}
			tcfg.Journal = j
		}
		p.Tracer = trace.New(tcfg)
		defer func() {
			if err := p.Tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "whowas: closing trace journal: %v\n", err)
			} else if o.journalPath != "" {
				fmt.Printf("trace journal written to %s\n", o.journalPath)
			}
		}()
	}
	if o.opsAddr != "" {
		stopOps, err := ops.Serve(os.Stdout, o.opsAddr, ops.Config{Metrics: p.Metrics, Tracer: p.Tracer, Rounds: p.RoundReports})
		if err != nil {
			return err
		}
		defer stopOps()
	}

	camp := core.FastCampaign()
	if o.maxRounds > 0 {
		days := core.DefaultRoundSchedule(p.Cloud.Days())
		if o.maxRounds < len(days) {
			days = days[:o.maxRounds]
		}
		camp.RoundDays = days
	}
	var err error
	if camp.Faults, err = faults.LoadFlag(os.Stdout, o.faultsPath); err != nil {
		return err
	}
	if o.retries > 0 {
		camp.Scanner.Attempts = o.retries
		camp.Fetcher.Attempts = o.retries
	}
	camp.RoundTimeout = o.roundTimeout
	camp.PipelineShards = o.shards
	if o.exclude != "" {
		set := ipaddr.NewSet()
		for _, s := range strings.FieldsFunc(o.exclude, func(r rune) bool { return r == ',' }) {
			a, err := ipaddr.ParseAddr(s)
			if err != nil {
				return fmt.Errorf("bad -exclude entry: %w", err)
			}
			set.Add(a)
		}
		camp.Blacklist = set
		fmt.Printf("excluding %d opted-out IPs\n", set.Len())
	}
	if !o.quiet {
		camp.Observer = func(r core.RoundReport) { fmt.Println(" ", r.ProgressLine()) }
	}

	if err := p.RunCampaign(ctx, camp); err != nil {
		return err
	}
	if err := core.AnnounceDigest(os.Stdout, p.Store); err != nil {
		return err
	}

	if o.doCarto && p.IsEC2Like() {
		fmt.Println("running VPC cartography sweep...")
		if err := p.RunCartography(ctx, carto.Config{Rate: 1e6}); err != nil {
			return err
		}
		fmt.Printf("cartography: %d VPC /22 prefixes\n", p.CartoMap.VPCPrefixCount())
	}
	if o.doCluster {
		fmt.Println("clustering <IP, round> records...")
		if err := p.RunClustering(cluster.Config{}); err != nil {
			return err
		}
		fmt.Printf("clusters: %d top-level, %d second-level, %d final (threshold %d)\n",
			p.Clusters.TopLevel, p.Clusters.SecondLevel, p.Clusters.Final, p.Clusters.Threshold)
	}

	return core.WriteOutputs(os.Stdout, p.Store, o.out, p.Report(), o.metricsPath)
}
