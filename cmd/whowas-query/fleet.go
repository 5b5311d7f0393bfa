package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"whowas/internal/coord"
	"whowas/internal/httpd"
)

// runFleet implements the fleet subcommand: a live dashboard over a
// running coordinator's /coord/fleet document — per-worker throughput,
// lease TTLs and budget slices, shard progress, and the status-history
// tail (degraded rounds, expired leases, re-assigned shards).
func runFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	addrFlag := fs.String("addr", "", "coordinator address (or pass it as the positional argument)")
	watch := fs.Bool("watch", false, "refresh continuously until the campaign is done")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval with -watch")
	histN := fs.Int("history", 10, "status-history tail length to print (0 = none)")
	promRaw := fs.Bool("prom", false, "dump the raw /metrics/prom exposition instead of the dashboard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr := *addrFlag
	if addr == "" {
		addr = fs.Arg(0)
	}
	if addr == "" {
		return fmt.Errorf("fleet: coordinator address required (positional or -addr)")
	}
	client, err := httpd.NewClient(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx := context.Background()
	if *promRaw {
		if _, err := client.GetRaw(ctx, "/metrics/prom", os.Stdout); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	for {
		var fleet coord.Fleet
		if _, err := client.GetJSON(ctx, "/coord/fleet", &fleet); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		if *watch {
			// Home the cursor and clear: a terminal dashboard, not a log.
			fmt.Print("\033[H\033[2J")
		}
		renderFleet(os.Stdout, addr, &fleet, *histN)
		if !*watch || fleet.Status.Done {
			return nil
		}
		select {
		case <-sig:
			return nil
		case <-time.After(*interval):
		}
	}
}

func renderFleet(w io.Writer, addr string, f *coord.Fleet, histN int) {
	st := f.Status
	fmt.Fprintf(w, "fleet @ %s — cloud %s", addr, st.Cloud)
	switch {
	case st.Done:
		fmt.Fprintf(w, ", campaign done (%d/%d rounds)\n", st.RoundsCompleted, st.RoundsTotal)
	case st.Round >= 0:
		fmt.Fprintf(w, ", round %d/%d (day %d): %d pending / %d assigned / %d done\n",
			st.Round+1, st.RoundsTotal, st.Day,
			st.ShardsPending, st.ShardsAssigned, st.ShardsDone)
	default:
		fmt.Fprintf(w, ", idle (%d/%d rounds)\n", st.RoundsCompleted, st.RoundsTotal)
	}
	if st.Unlimited {
		fmt.Fprintf(w, "budget: unlimited (simulation speed), %d lease(s)", len(st.Leases))
	} else {
		util := 0.0
		if st.Rate > 0 {
			util = 100 * st.LeasedRate / st.Rate
		}
		fmt.Fprintf(w, "budget: %.0f pps, leased %.0f (%.1f%%)", st.Rate, st.LeasedRate, util)
	}
	fmt.Fprintf(w, "   fleet rate: %.1f probes/sec\n\n", f.ProbesPerSec)

	fmt.Fprintf(w, "%-12s %9s %10s %9s %8s %7s %6s %6s %11s %9s\n",
		"WORKER", "SEEN", "RATE(pps)", "PROBES", "RESP", "PAGES", "ERRS", "RETR", "LEASE(pps)", "TTL(ms)")
	for _, wv := range f.Workers {
		lease, ttl := "-", "-"
		if wv.Lease != nil {
			// An unlimited campaign leases slices of the simulation-speed
			// sentinel rate; the number is meaningless, so elide it.
			if st.Unlimited {
				lease = "unlim"
			} else {
				lease = fmt.Sprintf("%.0f", wv.Lease.Rate)
			}
			ttl = fmt.Sprintf("%d", wv.Lease.ExpiresInMS)
		}
		fmt.Fprintf(w, "%-12s %8.1fs %10.1f %9d %8d %7d %6d %6d %11s %9s\n",
			wv.Worker, float64(wv.SeenAgoMS)/1000, wv.ProbesPerSec,
			wv.Probes, wv.Responsive, wv.Pages, wv.FetchErrors, wv.Retries,
			lease, ttl)
	}
	if len(f.Workers) == 0 {
		fmt.Fprintln(w, "(no worker reports yet)")
	}

	if histN > 0 && len(f.History) > 0 {
		recs := f.History
		if len(recs) > histN {
			recs = recs[len(recs)-histN:]
		}
		fmt.Fprintf(w, "\nhistory (%d of %d):\n", len(recs), f.HistoryTotal)
		for _, rec := range recs {
			fmt.Fprintf(w, "  %s  %s\n",
				time.UnixMilli(rec.TimeMS).Format("15:04:05.000"), historyLine(rec))
		}
	}
}

// historyLine renders one status record as a compact event line.
func historyLine(rec coord.Status) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s", rec.Event)
	if rec.Worker != "" {
		fmt.Fprintf(&b, " worker=%s", rec.Worker)
	}
	if rec.Round >= 0 {
		fmt.Fprintf(&b, " round=%d day=%d shards=%d/%d/%d",
			rec.Round, rec.Day, rec.ShardsPending, rec.ShardsAssigned, rec.ShardsDone)
	}
	if rec.Degraded {
		b.WriteString(" degraded")
	}
	if rec.LeasesExpired > 0 {
		fmt.Fprintf(&b, " leases_expired=%d", rec.LeasesExpired)
	}
	if rec.ShardsReassigned > 0 {
		fmt.Fprintf(&b, " reassigned=%d", rec.ShardsReassigned)
	}
	if rec.QuotaUtilization > 0 {
		fmt.Fprintf(&b, " quota=%.0f%%", 100*rec.QuotaUtilization)
	}
	return b.String()
}
