package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// This file keeps the map-based clustering Run used before it moved to
// flat slices, as an oracle: a level-1 map of point slices, a hash set
// for the threshold, per-group maps in level 2, a per-IP map in the
// merge and a sorted pair list in the gap curve. Run must reproduce
// its every output.

// refPoint is the oracle's point: it carries its level-1 key.
type refPoint struct {
	m     Member
	key   l1Key
	hash  simhash.Fingerprint
	label int64
}

type refDraft struct {
	id     int64
	key    l1Key
	points []int
}

// referenceRun clusters like Run, with the map-based passes, and
// writes its labels through UpdateRounds like Run.
func referenceRun(st *store.Store, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	var pts []refPoint
	var starts []int
	st.Scan(scanFields, func(round *store.Round) bool {
		starts = append(starts, len(pts))
		round.Each(func(rec *store.Record) bool {
			if rec.Available() {
				pts = append(pts, refPoint{
					m:     Member{IP: rec.IP, Round: rec.Round, VPC: rec.VPC},
					key:   l1Key{rec.Title, rec.Template, rec.Server, rec.Keywords, rec.AnalyticsID},
					hash:  rec.Simhash,
					label: rec.Cluster,
				})
			}
			return true
		})
		return true
	})
	rounds := len(starts)
	starts = append(starts, len(pts))
	if len(pts) == 0 {
		return nil, fmt.Errorf("cluster: no available records to cluster")
	}

	groups := make(map[l1Key][]int)
	hashSet := make(map[simhash.Fingerprint]struct{})
	for i, p := range pts {
		groups[p.key] = append(groups[p.key], i)
		hashSet[p.hash] = struct{}{}
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = refGapThreshold(hashSet, cfg.Seed)
	}

	keys := make([]l1Key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return l1Compare(keys[i], keys[j]) < 0 })
	var all []*refDraft
	for _, k := range keys {
		for _, members := range refSplitBySimhash(pts, groups[k], threshold) {
			all = append(all, &refDraft{id: int64(len(all) + 1), key: k, points: members})
		}
	}
	secondLevel := len(all)

	merged := refMergeClusters(pts, all, cfg.MergeDistance)

	labels := make([]int64, len(pts))
	var final, removed []*Cluster
	for _, d := range merged {
		slices.Sort(d.points)
		c := &Cluster{
			ID:          d.id,
			Members:     make([]Member, len(d.points)),
			Title:       d.key.title,
			Template:    d.key.template,
			Server:      d.key.server,
			Keywords:    d.key.keywords,
			AnalyticsID: d.key.gaID,
		}
		for j, i := range d.points {
			c.Members[j] = pts[i].m
		}
		if reason := cleanReason(c, rounds, cfg.CleanMinAvgIPs); reason != "" {
			c.Removed = true
			c.RemovedReason = reason
			removed = append(removed, c)
			continue
		}
		c.ID = int64(len(final) + 1)
		for _, i := range d.points {
			labels[i] = c.ID
		}
		final = append(final, c)
	}

	var stale []int
	for r := 0; r < rounds; r++ {
		for i := starts[r]; i < starts[r+1]; i++ {
			if pts[i].label != labels[i] {
				stale = append(stale, r)
				break
			}
		}
	}
	err := st.UpdateRounds(stale, func(round *store.Round) bool {
		i, end := starts[round.Index], starts[round.Index+1]
		round.Each(func(rec *store.Record) bool {
			if i < end && rec.IP == pts[i].m.IP {
				rec.Cluster = labels[i]
				i++
			}
			return true
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		TopLevel:        len(groups),
		SecondLevel:     secondLevel,
		Final:           len(final),
		Threshold:       threshold,
		UniqueHashes:    len(hashSet),
		Clusters:        final,
		RemovedClusters: removed,
	}, nil
}

func refSplitBySimhash(pts []refPoint, group []int, threshold int) [][]int {
	byHash := make(map[simhash.Fingerprint][]int)
	var hashes []simhash.Fingerprint
	for _, i := range group {
		h := pts[i].hash
		if _, ok := byHash[h]; !ok {
			hashes = append(hashes, h)
		}
		byHash[h] = append(byHash[h], i)
	}
	uf := newUnionFind(len(hashes))
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			if simhash.Distance(hashes[i], hashes[j]) <= threshold {
				uf.union(i, j)
			}
		}
	}
	byRoot := map[int][]int{}
	for i, h := range hashes {
		root := uf.find(i)
		byRoot[root] = append(byRoot[root], byHash[h]...)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(byRoot))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

func refMergeClusters(pts []refPoint, clusters []*refDraft, mergeDist int) []*refDraft {
	uf := newUnionFind(len(clusters))
	type obs struct {
		p  *refPoint
		ci int
	}
	byIP := map[ipaddr.Addr][]obs{}
	for ci, c := range clusters {
		for _, i := range c.points {
			p := &pts[i]
			byIP[p.m.IP] = append(byIP[p.m.IP], obs{p, ci})
		}
	}
	for _, list := range byIP {
		sort.Slice(list, func(i, j int) bool { return list[i].p.m.Round < list[j].p.m.Round })
		for i := 1; i < len(list); i++ {
			a, b := list[i-1], list[i]
			if a.ci != b.ci && simhash.Distance(a.p.hash, b.p.hash) <= mergeDist && oneFeatureEqual(a.p.key, b.p.key) {
				uf.union(a.ci, b.ci)
			}
		}
	}
	byRoot := map[int]*refDraft{}
	var out []*refDraft
	for i, c := range clusters {
		root := uf.find(i)
		if dst, ok := byRoot[root]; ok {
			dst.points = append(dst.points, c.points...)
		} else {
			byRoot[root] = c
			out = append(out, c)
		}
	}
	return out
}

func refGapThreshold(hashes map[simhash.Fingerprint]struct{}, seed int64) int {
	const maxT = 16
	sample := make([]simhash.Fingerprint, 0, len(hashes))
	for h := range hashes {
		sample = append(sample, h)
	}
	sort.Slice(sample, func(i, j int) bool {
		if sample[i].Hi != sample[j].Hi {
			return sample[i].Hi < sample[j].Hi
		}
		return sample[i].Lo < sample[j].Lo
	})
	if len(sample) < 8 {
		return 3
	}
	const maxSample = 900
	if len(sample) > maxSample {
		step := len(sample) / maxSample
		sub := make([]simhash.Fingerprint, 0, maxSample)
		for i := 0; i < len(sample) && len(sub) < maxSample; i += step {
			sub = append(sub, sample[i])
		}
		sample = sub
	}
	obs := refClusterCounts(sample, maxT)
	rng := rand.New(rand.NewSource(seed + 42))
	const refDraws = 3
	refLog := make([][]float64, refDraws)
	for b := range refLog {
		ref := make([]simhash.Fingerprint, len(sample))
		for i := range ref {
			ref[i] = simhash.Fingerprint{Hi: rng.Uint32(), Lo: rng.Uint64()}
		}
		counts := refClusterCounts(ref, maxT)
		refLog[b] = make([]float64, maxT+1)
		for t := 1; t <= maxT; t++ {
			refLog[b][t] = math.Log(float64(counts[t]))
		}
	}
	gap := make([]float64, maxT+1)
	sdev := make([]float64, maxT+1)
	for t := 1; t <= maxT; t++ {
		var mean float64
		for b := 0; b < refDraws; b++ {
			mean += refLog[b][t]
		}
		mean /= refDraws
		var ss float64
		for b := 0; b < refDraws; b++ {
			d := refLog[b][t] - mean
			ss += d * d
		}
		sd := math.Sqrt(ss/refDraws) * math.Sqrt(1+1.0/refDraws)
		if floor := math.Log(1.01); sd < floor {
			sd = floor
		}
		gap[t] = mean - math.Log(float64(obs[t]))
		sdev[t] = sd
	}
	for t := 1; t < maxT; t++ {
		if gap[t] >= gap[t+1]-sdev[t+1] {
			return t
		}
	}
	return maxT
}

func refClusterCounts(hashes []simhash.Fingerprint, maxT int) []int {
	type pair struct {
		i, j, d int
	}
	var pairs []pair
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			if d := simhash.Distance(hashes[i], hashes[j]); d <= maxT {
				pairs = append(pairs, pair{i, j, d})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })
	uf := newUnionFind(len(hashes))
	comps := len(hashes)
	counts := make([]int, maxT+1)
	idx := 0
	for t := 1; t <= maxT; t++ {
		for idx < len(pairs) && pairs[idx].d <= t {
			if uf.union(pairs[idx].i, pairs[idx].j) {
				comps--
			}
			idx++
		}
		counts[t] = comps
	}
	return counts
}

// storeLabels returns every stored record's cluster label, round by
// round in IP order.
func storeLabels(st *store.Store) [][]int64 {
	var out [][]int64
	st.EachRound(func(r *store.Round) bool {
		var labels []int64
		r.Each(func(rec *store.Record) bool {
			labels = append(labels, rec.Cluster)
			return true
		})
		out = append(out, labels)
		return true
	})
	return out
}

// TestRunMatchesReference holds Run to the map-based oracle: the same
// counters, the same clusters (IDs, Members, representative features,
// removals) and the same stored labels, on random stores at a tuned and
// at fixed thresholds, on the bench-shaped synthetic store and on the
// cross-level-1 merge fixture.
func TestRunMatchesReference(t *testing.T) {
	type fixture struct {
		name  string
		build func() *store.Store
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 20; seed++ {
		// 35 to 320 families: the larger stores pass the gap
		// statistic's 900-hash stride sample.
		families := 20 + 15*int(seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random seed %d", seed), func() *store.Store {
			return randomStore(t, seed, families, 8)
		}})
	}
	for seed := int64(1); seed <= 3; seed++ {
		fixtures = append(fixtures, fixture{fmt.Sprintf("synthetic seed %d", seed), func() *store.Store {
			return syntheticStore(t, seed, 200, 8)
		}})
	}
	fixtures = append(fixtures, fixture{"merge across revisions", func() *store.Store {
		return buildStore(t, mergeFixture())
	}})

	for _, f := range fixtures {
		for _, th := range []int{0, 1, 3, 8, 16} {
			cfg := Config{Threshold: th, Seed: 7}
			ref := f.build()
			want, err := referenceRun(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := f.build()
			got, err := Run(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, threshold %d: Result differs from the reference:\n%s", f.name, th, resultDiff(got, want))
			}
			if g, w := storeLabels(st), storeLabels(ref); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s, threshold %d: stored labels differ from the reference", f.name, th)
			}
		}
	}
}

// resultDiff names the first field where two Results differ.
func resultDiff(got, want *Result) string {
	if got.TopLevel != want.TopLevel || got.SecondLevel != want.SecondLevel || got.Final != want.Final ||
		got.Threshold != want.Threshold || got.UniqueHashes != want.UniqueHashes {
		return fmt.Sprintf("counters %d/%d/%d t=%d u=%d, want %d/%d/%d t=%d u=%d",
			got.TopLevel, got.SecondLevel, got.Final, got.Threshold, got.UniqueHashes,
			want.TopLevel, want.SecondLevel, want.Final, want.Threshold, want.UniqueHashes)
	}
	for _, l := range []struct {
		name      string
		got, want []*Cluster
	}{{"Clusters", got.Clusters, want.Clusters}, {"RemovedClusters", got.RemovedClusters, want.RemovedClusters}} {
		if len(l.got) != len(l.want) {
			return fmt.Sprintf("%d %s, want %d", len(l.got), l.name, len(l.want))
		}
		for i := range l.got {
			if !reflect.DeepEqual(l.got[i], l.want[i]) {
				return fmt.Sprintf("%s[%d] = %+v,\nwant %+v", l.name, i, *l.got[i], *l.want[i])
			}
		}
	}
	return "no field differs"
}

// mergeFixture is TestMergeHeuristicAcrossRevisions' store: one IP
// whose server header changes with a 2-bit revision (distance 2),
// splitting level 1, which the merge heuristic rejoins.
func mergeFixture() [][]*store.Record {
	recA := page("1.0.0.1", "Shop", "nginx/1.0", bodyA)
	recB := page("1.0.0.1", "Shop", "nginx/1.1", bodyA)
	recB.Simhash = simhash.Hash(bodyA).FlipBits(0, 5)
	return [][]*store.Record{{recA}, {recB}}
}
