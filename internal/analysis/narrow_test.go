package analysis

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"whowas/internal/carto"
	"whowas/internal/cloudapi"
	"whowas/internal/cluster"
	"whowas/internal/core"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
)

// The cross-backend oracle for narrowed scans: one campaign, with
// cartography and clustering joined, held whole on the memory backend
// and copied onto colstore, whose scans decode only the columns each
// analysis asks for. A field an analysis reads but leaves out of its
// set reads as zero on colstore, so the two answers differ.

const narrowDays = 15

var (
	narrowOnce sync.Once
	narrowP    *core.Platform
	narrowErr  error
)

// narrowCampaign collects five rounds of a floor-sized EC2 cloud onto
// the memory backend and joins the labels.
func narrowCampaign(t *testing.T) *core.Platform {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign integration test skipped in -short mode")
	}
	narrowOnce.Do(func() {
		p, err := core.NewPlatform(cloudapi.DefaultEC2Config(8192, 17))
		if err == nil {
			cfg := core.FastCampaign()
			cfg.RoundDays = []int{0, 3, 7, 10, 14}
			err = p.RunCampaign(context.Background(), cfg)
		}
		if err == nil {
			err = p.RunCartography(context.Background(), carto.Config{Rate: 1e6})
		}
		if err == nil {
			err = p.RunClustering(cluster.Config{Threshold: 3})
		}
		narrowP, narrowErr = p, err
	})
	if narrowErr != nil {
		t.Fatal(narrowErr)
	}
	return narrowP
}

// onColstore copies the memory store's rounds into a fresh colstore
// directory.
func onColstore(t *testing.T, mem *store.Store) (*store.Store, *colstore.Backend) {
	t.Helper()
	b, err := colstore.Open(t.TempDir(), colstore.Options{CloudName: mem.CloudName})
	if err != nil {
		t.Fatal(err)
	}
	col := store.NewWithBackend(mem.CloudName, b)
	t.Cleanup(func() { _ = col.Close() })
	for i, meta := range mem.Metas() {
		recs, err := mem.Backend().Read(i, store.AllFields)
		if err == nil {
			err = b.Append(meta, recs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return col, b
}

func TestNarrowedAnalysesMatchMemory(t *testing.T) {
	p := narrowCampaign(t)
	col, _ := onColstore(t, p.Store)
	res := p.Clusters
	for _, a := range []struct {
		name string
		run  func(*store.Store) any
	}{
		{"Churn", func(st *store.Store) any { return Churn(st) }},
		{"Usage", func(st *store.Store) any { return Usage(st) }},
		{"Ports", func(st *store.Store) any { return Ports(st) }},
		{"Statuses", func(st *store.Store) any { return Statuses(st) }},
		{"ContentTypes", func(st *store.Store) any { return ContentTypes(st, 0) }},
		{"VPCUsage", func(st *store.Store) any { return VPCUsage(st) }},
		{"Census", func(st *store.Store) any { return Census(st) }},
		{"Trackers", func(st *store.Store) any { return Trackers(st) }},
		{"Clustering", func(st *store.Store) any { return Clustering(st, res) }},
		{"SizePatterns", func(st *store.Store) any { return SizePatterns(st, res, narrowDays) }},
		{"Departures", func(st *store.Store) any { return Departures(st, res, 0) }},
	} {
		want, got := a.run(p.Store), a.run(col)
		if reflect.Indirect(reflect.ValueOf(want)).IsZero() {
			t.Errorf("%s: empty result on the memory backend; the oracle compares nothing", a.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s on colstore's narrowed scans:\n got %+v\nwant %+v", a.name, got, want)
		}
	}
}

// TestNarrowedReadCounts reads colstore's counters around a pass: the
// status analyses inflate no dictionary chunk, and cartography and
// clustering over unchanged labels read one narrowed scan each and
// rewrite nothing, so no round is decoded whole.
func TestNarrowedReadCounts(t *testing.T) {
	p := narrowCampaign(t)
	col, b := onColstore(t, p.Store)
	rounds := int64(col.NumRounds())
	since := func(before colstore.ReadStats) colstore.ReadStats {
		now := b.ReadStats()
		return colstore.ReadStats{Scans: now.Scans - before.Scans, FullScans: now.FullScans - before.FullScans,
			Groups: now.Groups - before.Groups, Chunks: now.Chunks - before.Chunks, Bytes: now.Bytes - before.Bytes}
	}

	before := b.ReadStats()
	col.Scan(store.FieldPorts, func(*store.Round) bool { return true })
	Churn(col)
	Usage(col)
	Clustering(col, p.Clusters)
	if d := since(before); d.Scans != 4*rounds || d.FullScans != 0 || d.Chunks != 0 || d.Groups == 0 {
		t.Errorf("ports-only scan + Churn + Usage + Clustering read %+v, want %d scans, none full, no dictionary chunk", d, 4*rounds)
	}

	pass := func() {
		if err := p.CartoMap.Apply(col); err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.Run(col, cluster.Config{Threshold: 3, Seed: p.Cloud.Info().Seed}); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	before = b.ReadStats()
	pass()
	if d := since(before); d.Scans != 2*rounds || d.FullScans != 0 {
		t.Errorf("second carto.Apply + cluster.Run read %+v, want %d scans, none full (nothing written back)", d, 2*rounds)
	}
	want, err := p.Store.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := col.Digest(); err != nil || got != want {
		t.Errorf("colstore digest after the passes %s (%v), memory %s", got, err, want)
	}
}
