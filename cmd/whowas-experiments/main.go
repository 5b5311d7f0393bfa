// Command whowas-experiments regenerates every table and figure of
// the paper's evaluation over freshly simulated clouds and prints a
// combined report (EXPERIMENTS.md compares it with the paper). It runs
// the two campaigns the way the paper did; cmd/whowas is the command
// for faulty networks, sharding and live observability.
//
// Usage:
//
//	whowas-experiments                 # full suite at default scale
//	whowas-experiments -ec2-scale 256 -azure-scale 64
//	whowas-experiments -only table7,figure9
//	whowas-experiments -csv out/       # + each figure's data series
//	WHOWAS_SCALE=4 whowas-experiments  # shrink everything 4x
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"whowas/internal/experiments"
)

func main() {
	var (
		ec2Scale   = flag.Int("ec2-scale", 0, "EC2 scale divisor (default 128)")
		azureScale = flag.Int("azure-scale", 0, "Azure scale divisor (default 32)")
		seed       = flag.Int64("seed", 0, "simulation seed (default fixed)")
		only       = flag.String("only", "", "comma-separated experiment IDs to print (default all)")
		csvDir     = flag.String("csv", "", "also write each figure's data series as CSV into this directory")
		quiet      = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	// -only is checked before the campaigns run: a typo should cost a
	// usage error, not minutes of collection that print nothing.
	want := strings.FieldsFunc(*only, func(r rune) bool { return r == ',' || r == ' ' })
	ids := experiments.IDs()
	for _, id := range want {
		if !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "whowas-experiments: unknown experiment %q in -only; valid IDs: %s\n",
				id, strings.Join(ids, ", "))
			os.Exit(2)
		}
	}

	opts := experiments.Options{EC2Scale: *ec2Scale, AzureScale: *azureScale, Seed: *seed}
	opts.Progress = func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[experiments] "+format+"\n", args...)
		}
	}
	if err := run(opts, want, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "whowas-experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(opts experiments.Options, want []string, csvDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	suite, err := experiments.Run(ctx, opts)
	if err != nil {
		return err
	}
	all, err := suite.All(ctx)
	if err != nil {
		return err
	}
	for _, exp := range all {
		if len(want) == 0 || slices.Contains(want, exp.ID) {
			fmt.Printf("==== %s — %s ====\n%s\n", exp.ID, exp.Title, exp.Output)
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		for stem, data := range suite.FigureCSVs() {
			path := filepath.Join(csvDir, stem+".csv")
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				return err
			}
			opts.Progress("wrote %s", path)
		}
	}
	opts.Progress("suite completed in %s", time.Since(start))
	return nil
}
