// Command whowas-bench regenerates every table and figure of the
// paper's evaluation over freshly simulated clouds and prints a
// combined report. It drives the same experiment suite as the
// testing.B benchmarks in bench_test.go.
//
// Usage:
//
//	whowas-bench                 # full suite at default scale
//	whowas-bench -ec2-scale 256 -azure-scale 64
//	whowas-bench -only table7,figure9
//	whowas-bench -faults scenarios/chaos.json  # evaluation over a degraded network
//	whowas-bench -faults scenarios/chaos.json -retries 3 -round-timeout 30s
//	whowas-bench -ops-addr 127.0.0.1:8377 -trace-journal run.jsonl
//	WHOWAS_SCALE=4 whowas-bench  # shrink everything 4x
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"whowas/internal/atomicfile"
	"whowas/internal/core"
	"whowas/internal/experiments"
	"whowas/internal/faults"
	"whowas/internal/metrics"
	"whowas/internal/ops"
	"whowas/internal/trace"
)

func main() {
	var (
		ec2Scale     = flag.Int("ec2-scale", 0, "EC2 scale divisor (default 128)")
		azureScale   = flag.Int("azure-scale", 0, "Azure scale divisor (default 32)")
		seed         = flag.Int64("seed", 0, "simulation seed (default fixed)")
		only         = flag.String("only", "", "comma-separated experiment IDs to print (default all)")
		csvDir       = flag.String("csv", "", "also write each figure's data series as CSV into this directory")
		quiet        = flag.Bool("q", false, "suppress progress logging")
		metricsPath  = flag.String("metrics", "", "write both campaigns' metrics reports (round reports + registry snapshots) as JSON to this path")
		faultsPath   = flag.String("faults", "", "run both campaigns through this JSON fault scenario (see internal/faults)")
		retries      = flag.Int("retries", 0, "probe/fetch attempts per target (0 = defaults: 1, or 3 with -faults)")
		roundTimeout = flag.Duration("round-timeout", 0, "per-round deadline; an exceeded round finalizes degraded with partial records (0 = none)")
		opsAddr      = flag.String("ops-addr", "", "serve the live ops endpoint (/healthz, /metrics, /trace/*, pprof) on this address")
		journalPath  = flag.String("trace-journal", "", "append completed spans as JSONL to this path (crash-safe; read with whowas-query trace)")
		shards       = flag.Int("pipeline-shards", 0, "round pipeline region lanes (0 = one per region, 1 = unsharded)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{
		EC2Scale:       *ec2Scale,
		AzureScale:     *azureScale,
		Seed:           *seed,
		Retries:        *retries,
		RoundTimeout:   *roundTimeout,
		PipelineShards: *shards,
	}
	if *faultsPath != "" {
		sc, err := faults.LoadFile(*faultsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
			os.Exit(1)
		}
		opts.Faults = sc
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[bench] "+format+"\n", args...)
		}
	}

	if *journalPath != "" || *opsAddr != "" {
		tcfg := trace.Config{}
		if *journalPath != "" {
			j, err := trace.CreateJournal(*journalPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
				os.Exit(1)
			}
			tcfg.Journal = j
		}
		opts.Tracer = trace.New(tcfg)
		defer func() {
			if err := opts.Tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "whowas-bench: closing trace journal: %v\n", err)
			} else if *journalPath != "" {
				fmt.Fprintf(os.Stderr, "[bench] wrote %s\n", *journalPath)
			}
		}()
	}
	if *opsAddr != "" {
		// The suite runs two sequential campaigns on separate
		// platforms; a shared registry and a round accumulator give the
		// ops endpoint one combined live view.
		opts.Metrics = metrics.NewRegistry()
		var roundsMu sync.Mutex
		var rounds []core.RoundReport
		opts.Observe = func(cloud string, r core.RoundReport) {
			roundsMu.Lock()
			defer roundsMu.Unlock()
			rounds = append(rounds, r)
		}
		srv := ops.New(ops.Config{
			Metrics: opts.Metrics,
			Tracer:  opts.Tracer,
			Rounds: func() []core.RoundReport {
				roundsMu.Lock()
				defer roundsMu.Unlock()
				return append([]core.RoundReport(nil), rounds...)
			},
		})
		addr, err := srv.Start(*opsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[bench] ops endpoint listening on http://%s\n", addr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
	}

	start := time.Now()
	suite, err := experiments.Run(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
		os.Exit(1)
	}
	all, err := suite.All(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	for _, exp := range all {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		fmt.Printf("==== %s — %s ====\n%s\n", exp.ID, exp.Title, exp.Output)
	}
	if *metricsPath != "" {
		data, err := json.MarshalIndent(suite.CampaignReports(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
			os.Exit(1)
		}
		if err := atomicfile.WriteFile(*metricsPath, append(data, '\n')); err != nil {
			fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[bench] wrote %s\n", *metricsPath)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
			os.Exit(1)
		}
		for stem, data := range suite.FigureCSVs() {
			path := filepath.Join(*csvDir, stem+".csv")
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "whowas-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "[bench] wrote %s\n", path)
		}
	}
	fmt.Fprintf(os.Stderr, "[bench] suite completed in %s\n", time.Since(start))
}
