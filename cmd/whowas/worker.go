// The -worker mode: this process stops being a self-contained
// campaign and becomes one lane of a distributed one. It registers
// with a whowas-coordinator, leases a slice of the fleet's global §7
// probe budget, and runs assigned region shards (the same
// scan→fetch→featurize lane as the single-process round) against the
// shared whowas-cloudd, streaming results back until the coordinator
// says the campaign is done.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"whowas/internal/coord"
	"whowas/internal/core"
	"whowas/internal/metrics"
	"whowas/internal/ops"
)

// workerFlags are the flags that mean something with -worker. The
// campaign's settings — cloud, schedule, faults, retries, deadlines,
// opt-outs, store — come from the coordinator, so any other flag set
// beside -worker would be silently dropped.
var workerFlags = map[string]bool{
	"worker": true, "coordinator-addr": true, "worker-id": true,
	"q": true, "ops-addr": true, "metrics": true,
}

// strayWorkerFlags lists the explicitly set flags a worker ignores.
func strayWorkerFlags() []string {
	var stray []string
	flag.Visit(func(f *flag.Flag) {
		if !workerFlags[f.Name] {
			stray = append(stray, "-"+f.Name)
		}
	})
	return stray
}

func runWorker(ctx context.Context, o options) error {
	if o.coordAddr == "" {
		return fmt.Errorf("-worker requires -coordinator-addr")
	}
	reg := metrics.NewRegistry()
	wcfg := coord.WorkerConfig{
		Coordinator: o.coordAddr,
		ID:          o.workerID,
		Metrics:     reg,
	}
	if !o.quiet {
		wcfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	w, err := coord.NewWorker(wcfg)
	if err != nil {
		return err
	}
	defer func() {
		if err := w.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "whowas: closing worker: %v\n", err)
		}
	}()

	if o.opsAddr != "" {
		stopOps, err := ops.Serve(os.Stdout, o.opsAddr, ops.Config{Metrics: reg, Tracer: w.Tracer()})
		if err != nil {
			return err
		}
		defer stopOps()
	}

	fmt.Printf("worker %s: joining coordinator at %s\n", w.ID(), o.coordAddr)
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Printf("worker %s: done\n", w.ID())
	// A worker runs shards, not rounds, and holds no store: its report
	// is the registry alone, in the document every -metrics writes.
	return core.CampaignReport{Metrics: reg.Snapshot()}.WriteFile(os.Stdout, o.metricsPath)
}
