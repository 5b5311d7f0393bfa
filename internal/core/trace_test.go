package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"whowas/internal/faults"
	"whowas/internal/trace"
)

// The traced chaos tests close the observability loop: a faulty
// campaign's journal alone must attribute what happened — which rounds
// degraded, which stage the time went to, which spans were hit by
// injected faults — and, scheduling noise aside, the same scenario
// must journal the same span tree.

// runTracedChaosCampaign is runChaosCampaign plus a full-sampling
// tracer journaling to path.
func runTracedChaosCampaign(t *testing.T, sc *faults.Scenario, roundTimeout time.Duration, journalPath string) chaosOutcome {
	t.Helper()
	p, err := NewPlatform(chaosCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := trace.CreateJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{SamplePerMille: 1000, Journal: j})
	p.Tracer = tr
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := p.RunCampaign(ctx, chaosCampaignConfig(sc, roundTimeout)); err != nil {
		t.Fatalf("traced chaos campaign: %v", err)
	}
	// Close surfaces any journal write error as well as its own.
	if err := tr.Close(); err != nil {
		t.Fatalf("closing tracer: %v", err)
	}
	digest, err := p.Store.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return chaosOutcome{digest: digest, reports: p.Reports, snap: p.Metrics.Snapshot(), store: p.Store, p: p}
}

// timingAttrs are span attributes whose values ride on real-time
// scheduling — a CPU-starved probe can spuriously time out and spend
// an extra attempt — mirroring the report fields deterministicReports
// strips. They are journaled faithfully but not replayed exactly.
var timingAttrs = map[string]bool{"probes": true, "retries": true, "error": true}

// canonicalSpans reduces a journal to a sorted multiset of
// timing-free span descriptions: round, parent name, span name, and
// the deterministic attributes. Two campaigns with the same seed must
// produce equal canonical forms.
func canonicalSpans(t *testing.T, spans []trace.SpanSnapshot) []string {
	t.Helper()
	byID := make(map[uint64]trace.SpanSnapshot, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	roundOf := func(s trace.SpanSnapshot) string {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("span %d orphaned: parent %d not in journal", s.ID, s.Parent)
			}
			s = p
		}
		return s.Attr("round")
	}
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		parent := ""
		if p, ok := byID[s.Parent]; ok {
			parent = p.Name
		}
		attrs := make([]string, 0, len(s.Attrs))
		for k, v := range s.Attrs {
			if !timingAttrs[k] {
				attrs = append(attrs, k+"="+v)
			}
		}
		sort.Strings(attrs)
		out = append(out, fmt.Sprintf("round=%s parent=%s name=%s %s",
			roundOf(s), parent, s.Name, strings.Join(attrs, ",")))
	}
	sort.Strings(out)
	return out
}

// TestTracedChaosSpanTreeDeterminism runs the stream-faults scenario
// twice with full sampling and demands the two journals describe the
// same span tree — same spans, same parentage, same fault
// annotations — modulo timestamps and scheduling-dependent attempt
// counts.
func TestTracedChaosSpanTreeDeterminism(t *testing.T) {
	chaosTest(t)
	sc := &faults.Scenario{
		Name:             "stream-faults",
		Seed:             13,
		ResetPerMille:    200,
		ResetAfterBytes:  64,
		StallPerMille:    80,
		StallMS:          250,
		TruncatePerMille: 150,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.jsonl")
	pathB := filepath.Join(dir, "b.jsonl")
	a := runTracedChaosCampaign(t, sc, 0, pathA)
	b := runTracedChaosCampaign(t, sc, 0, pathB)
	if a.digest != b.digest {
		t.Fatalf("traced runs diverged before tracing is even at issue: %s vs %s", a.digest, b.digest)
	}

	spansA, err := trace.LoadJournal(pathA)
	if err != nil {
		t.Fatal(err)
	}
	spansB, err := trace.LoadJournal(pathB)
	if err != nil {
		t.Fatal(err)
	}
	canonA, canonB := canonicalSpans(t, spansA), canonicalSpans(t, spansB)
	if len(canonA) != len(canonB) {
		t.Fatalf("span counts differ: %d vs %d", len(canonA), len(canonB))
	}
	diffs := 0
	for i := range canonA {
		if canonA[i] != canonB[i] {
			if diffs < 5 {
				t.Errorf("span tree diverged:\n first %s\nsecond %s", canonA[i], canonB[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d canonical spans diverged", diffs, len(canonA))
	}

	// The stream faults left their marks: some get spans carry
	// fault.reset / fault.stall / fault.truncate annotations.
	marks := map[string]int{}
	for _, s := range spansA {
		for k := range s.Attrs {
			if strings.HasPrefix(k, "fault.") {
				marks[k]++
			}
		}
	}
	for _, k := range []string{"fault.reset", "fault.stall", "fault.truncate"} {
		if marks[k] == 0 {
			t.Errorf("no spans annotated with %s; marks: %v", k, marks)
		}
	}
}

// TestTracedBlackoutJournalAttribution is the flight-recorder
// acceptance test: given nothing but the journal of a blackout
// campaign, reconstruct which rounds degraded, where each round's
// time went, and which probes the blackout swallowed.
func TestTracedBlackoutJournalAttribution(t *testing.T) {
	chaosTest(t)
	sc := &faults.Scenario{
		Name:             "south-blackout",
		Seed:             11,
		DialLossPerMille: 200,
		Episodes:         []faults.Episode{faults.Blackout("south", 6, 8, true)},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blackout.jsonl")
	got := runTracedChaosCampaign(t, sc, chaosRoundTimeout, path)

	// From here on, only the journal.
	spans, err := trace.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rounds := trace.BreakdownRounds(spans)
	if len(rounds) != len(chaosDays) {
		t.Fatalf("journal reconstructs %d rounds, want %d", len(rounds), len(chaosDays))
	}
	blackout := map[int]bool{6: true, 8: true}
	for i, rb := range rounds {
		if rb.Round != i || rb.Day != chaosDays[i] {
			t.Errorf("breakdown %d: round %d day %d, want %d/%d", i, rb.Round, rb.Day, i, chaosDays[i])
		}
		if want := blackout[rb.Day]; rb.Degraded != want {
			t.Errorf("day %d: journal says degraded=%v, want %v", rb.Day, rb.Degraded, want)
		}
		for _, stage := range []string{"scan", "fetch", "featurize", "store.finalize"} {
			if rb.Stages[stage] <= 0 {
				t.Errorf("day %d: stage %q missing from journal breakdown (stages %v)", rb.Day, stage, rb.Stages)
			}
		}
		// Stage durations accumulate across the pipeline's per-region
		// lanes (the chaos cloud has two), so concurrent scan spans may
		// sum past the round's wall time — but not past lanes × total.
		if rb.Total <= 0 || rb.Stages["scan"] > 2*rb.Total {
			t.Errorf("day %d: scan %v exceeds %v across 2 lanes", rb.Day, rb.Stages["scan"], 2*rb.Total)
		}
		// The blackout's swallowed probes are attributable: held dials
		// annotate their probe spans, which appear exactly in the
		// degraded rounds and only against the blacked-out region.
		// Slowest holds every non-stage span of the round, so scanning
		// it sees each probe and get span once.
		var blackoutSpans int
		for _, s := range rb.Slowest {
			if s.Attr("fault.blackout") != "true" {
				continue
			}
			blackoutSpans++
			if region := s.Attr("region"); region != "south" {
				t.Errorf("day %d: fault.blackout span %d in region %q, want south", rb.Day, s.ID, region)
			}
		}
		if blackout[rb.Day] && blackoutSpans == 0 {
			t.Errorf("day %d degraded but journal holds no fault.blackout spans", rb.Day)
		}
		if !blackout[rb.Day] && blackoutSpans > 0 {
			t.Errorf("day %d healthy but journal holds %d fault.blackout spans", rb.Day, blackoutSpans)
		}
		// Steady 20% dial loss runs the whole campaign; every round's
		// journal should show the injector at work.
		if rb.FaultInjected == 0 {
			t.Errorf("day %d: no fault-injected spans despite 20%% dial loss", rb.Day)
		}
		if len(rb.Slowest) == 0 {
			t.Errorf("day %d: no slowest-span candidates", rb.Day)
		}
	}

	// The journal agrees with the run's own reports.
	for i, r := range got.reports {
		if rounds[i].Degraded != r.Degraded {
			t.Errorf("round %d: journal degraded=%v, report %v", i, rounds[i].Degraded, r.Degraded)
		}
	}
}
