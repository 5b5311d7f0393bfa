// The round: a layout deals the cloud's regions into shards, every
// shard runs as one ShardRunner lane (shard.go), and finishRound folds
// the shard results into a finalized store round and its RoundReport.
// RunRound is the one frame around a round; its collector either runs
// the lanes concurrently in-process (RunCampaign) or, in the coord
// package, waits for a worker fleet to submit the same shards.
package core

import (
	"context"
	"fmt"
	"time"

	"whowas/internal/store"
	"whowas/internal/trace"
)

// ShardLayout deals regions (in address-range order) round-robin over
// n shards: shard i holds regions i, i+n, i+2n, … n <= 0 means one
// shard per region; values above the region count are clamped.
func ShardLayout(regions []string, n int) [][]string {
	if n <= 0 || n > len(regions) {
		n = len(regions)
	}
	layout := make([][]string, n)
	for i, name := range regions {
		layout[i%n] = append(layout[i%n], name)
	}
	return layout
}

// poolShare splits a configured pool across lanes instead of
// multiplying it: N lanes with W total workers keep the same
// concurrency budget as one lane.
func poolShare(workers, lanes int) int {
	return max(workers/max(lanes, 1), 1)
}

// finishRound closes st's open round from its shards' results:
// results[i] is layout[i]'s run, already handed to st.PutBatch, or nil
// for a shard that never came back; timedOut says the round deadline
// cut the wait short. It adds the probed counts, marks the round
// degraded when the deadline fired or any shard degraded, ends the
// round, and returns its report — regions in address-range order, a
// missing shard's regions zero-count and Degraded, Scan the longest
// lane scan and Drain the tail from there to the end of the longest
// lane. The caller stamps Round, Day and Total.
func finishRound(st *store.Store, layout [][]string, results []*ShardResult, timedOut bool) (RoundReport, error) {
	report := RoundReport{Degraded: timedOut}
	var laneTotal time.Duration
	nRegions := 0
	for i, res := range results {
		nRegions += len(layout[i])
		if res == nil {
			continue
		}
		report.Degraded = report.Degraded || res.Degraded
		report.Scan = max(report.Scan, res.Scan)
		laneTotal = max(laneTotal, res.Total)
	}
	report.Drain = max(laneTotal-report.Scan, 0)
	// Region i sits at layout[i%n][i/n]: walking i restores
	// address-range order from the round-robin deal.
	for i := 0; i < nRegions; i++ {
		shard := i % len(layout)
		reg := RegionReport{Region: layout[shard][i/len(layout)]}
		if rr := results[shard].region(reg.Region); rr != nil {
			reg.Probed = rr.Stats.Probed
			reg.Skipped = rr.Stats.Skipped
			reg.Responsive = rr.Stats.Responsive
			reg.Fetched = rr.Fetched
			reg.Records = rr.Records
			reg.Degraded = results[shard].Degraded && !rr.ScanDone
			report.Probes += rr.Stats.Probes
			report.Retries += rr.Stats.Retries
			report.RobotsDenied += rr.RobotsDenied
			report.FetchErrors += rr.FetchErrors
			report.BodyBytes += rr.BodyBytes
		} else {
			reg.Degraded = report.Degraded
		}
		report.Regions = append(report.Regions, reg)
		report.Probed += reg.Probed
		report.Skipped += reg.Skipped
		report.Responsive += reg.Responsive
		report.Fetched += reg.Fetched
		report.Records += reg.Records
	}
	st.AddProbed(report.Probed)
	if report.Degraded {
		if err := st.MarkDegraded(); err != nil {
			return report, err
		}
	}
	if err := st.EndRound(); err != nil {
		return report, err
	}
	return report, nil
}

// RunRound is the one frame around a round: advance the cloud to day,
// open the store round under a root span, and let collect gather the
// layout's shard results, each already merged into the store (nil for
// a shard that never came back; timedOut says the round deadline cut
// the wait short). A collect error drops the partial round, so the
// completed rounds stay digestable. Otherwise the round is finished,
// its report recorded and handed to observe when non-nil.
func (p *Platform) RunRound(ctx context.Context, layout [][]string, idx, day int, observe func(RoundReport),
	collect func(ctx context.Context) (results []*ShardResult, timedOut bool, err error)) error {
	start := time.Now()
	if err := p.Cloud.SetDay(ctx, day); err != nil {
		return fmt.Errorf("core: round %d: %w", idx, err)
	}
	if _, err := p.Store.BeginRound(day); err != nil {
		return err
	}
	rootSp := p.Tracer.Start("round", nil,
		trace.Int("round", idx), trace.Int("day", day))
	defer rootSp.End()

	results, timedOut, err := collect(trace.NewContext(ctx, rootSp))
	if err != nil {
		_ = p.Store.AbortRound()
		rootSp.SetAttr(trace.String("error", "collect"))
		return fmt.Errorf("core: round %d: %w", idx, err)
	}
	report, err := finishRound(p.Store, layout, results, timedOut)
	if err != nil {
		return err
	}
	report.Round, report.Day, report.Total = idx, day, time.Since(start)
	degradedRounds := p.Metrics.Counter("core.degraded_rounds")
	if report.Degraded {
		degradedRounds.Inc()
	}
	p.Metrics.Histogram("core.scan").Observe(report.Scan)
	p.Metrics.Histogram("core.drain").Observe(report.Drain)
	p.Metrics.Histogram("core.round").Observe(report.Total)
	rootSp.SetAttr(
		trace.Int64("records", report.Records),
		trace.Bool("degraded", report.Degraded),
	)
	rootSp.End()
	p.appendReport(report)
	if observe != nil {
		observe(report)
	}
	return nil
}

// runLanes runs every shard of the layout as a concurrent lane on the
// shared runner and hands each lane's records to the open store round
// in one batch. The first hard error cancels the sibling lanes; a
// round deadline is not an error (the lanes degrade). A campaign
// cancelled mid-round fails the round even if every lane had already
// exited cleanly.
func (p *Platform) runLanes(ctx context.Context, runner *ShardRunner, layout [][]string) ([]*ShardResult, error) {
	results := make([]*ShardResult, len(layout))
	g, laneCtx := newGroup(ctx)
	for i, regions := range layout {
		g.Go(func() error {
			res, err := runner.runLane(laneCtx, regions)
			if err == nil && p.laneHook != nil {
				err = p.laneHook(res)
			}
			if err == nil {
				err = p.Store.PutBatch(res.Records)
			}
			if err == nil {
				results[i] = res
			}
			return err
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
