// Package cluster implements WhoWas's webpage clustering (§5), which
// associates <IP, round> observations that are likely to host the same
// web application:
//
//  1. Level-1 clustering groups records by strict equality of five
//     features: title, template, server, keywords, and Google
//     Analytics ID.
//  2. Level-2 clustering splits each level-1 cluster by simhash, using
//     single-linkage over Hamming distance with a threshold tuned by
//     the gap statistic.
//  3. A merge heuristic rejoins clusters split by page revisions: two
//     records merge when they share the IP, their simhashes differ by
//     at most 3 bits, at least one level-1 feature matches, and the
//     clusters are temporally ordered.
//  4. Cleaning removes clusters whose titles indicate fetch failures
//     ("not found", "error", ...) and large clusters of default server
//     test pages ("welcome-apache", ...), which would otherwise lump
//     unrelated tenants together.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/simhash"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// Config tunes the clustering.
type Config struct {
	// Threshold is the level-2 Hamming distance threshold; 0 means
	// tune it with the gap statistic.
	Threshold int
	// MergeDistance is the max simhash distance for the merge
	// heuristic (3 in the paper, following Manku et al.).
	MergeDistance int
	// CleanMinAvgIPs is the average-size cutoff above which default
	// server pages are checked during cleaning (20 in the paper).
	CleanMinAvgIPs float64
	// Seed drives the gap statistic's reference draws.
	Seed int64
	// Metrics, when non-nil, receives the clustering instrumentation:
	// cluster.* counters and per-pass stage timings.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records a "cluster" root span with one
	// child per pass (level1, threshold, level2, merge, clean).
	Tracer *trace.Tracer
}

// WithDefaults returns the config with zero fields resolved to the
// paper's defaults (merge distance 3, clean cutoff 20). Run applies it
// internally; it is exported so callers and tests can observe the
// resolved values instead of re-stating them.
func (c Config) WithDefaults() Config {
	out := c
	if out.MergeDistance <= 0 {
		out.MergeDistance = 3
	}
	if out.CleanMinAvgIPs <= 0 {
		out.CleanMinAvgIPs = 20
	}
	return out
}

// Member is one <IP, round> observation of a cluster, with the
// cartography label the record carried when it was clustered. A
// cluster's Members are strictly ascending by (round, IP): each round
// the cluster is observed in is one contiguous run of ascending IPs.
type Member struct {
	IP    ipaddr.Addr
	Round int
	VPC   bool
}

// Cluster is one final cluster: a set of <IP, round> observations
// believed to be the same web application.
type Cluster struct {
	ID      int64
	Members []Member
	// Representative level-1 features (from the first member).
	Title, Template, Server, Keywords, AnalyticsID string
	// Removed marks clusters dropped by the cleaning step; their
	// records carry Cluster = 0.
	Removed bool
	// RemovedReason explains a removal ("error-title", "default-page").
	RemovedReason string
}

// Rounds returns the distinct rounds in which the cluster was
// observed, ascending: the round of each run of Members.
func (c *Cluster) Rounds() []int {
	var out []int
	for i, m := range c.Members {
		if i == 0 || m.Round != c.Members[i-1].Round {
			out = append(out, m.Round)
		}
	}
	return out
}

// IPsInRound returns the distinct IPs associated with the cluster in a
// round: the length of the round's run.
func (c *Cluster) IPsInRound(round int) int {
	n := 0
	for _, m := range c.Members {
		if m.Round == round {
			n++
		}
	}
	return n
}

// Result is the clustering output; Table 6 reports its counters.
type Result struct {
	TopLevel        int        // level-1 cluster count
	SecondLevel     int        // level-2 cluster count (before merge/clean)
	Final           int        // clusters after merging and cleaning
	Threshold       int        // level-2 distance threshold used
	UniqueHashes    int        // distinct simhashes across the input
	Clusters        []*Cluster // final clusters (Removed ones excluded)
	RemovedClusters []*Cluster
}

// l1Key is the strict-equality level-1 grouping key.
type l1Key struct {
	title, template, server, keywords, gaID string
}

// scanFields are the columns clustering reads: availability, the five
// level-1 features, the simhash, the VPC flag and the stored label.
const scanFields = store.FieldStatus | store.FieldTitle | store.FieldTemplate | store.FieldServer |
	store.FieldKeywords | store.FieldAnalyticsID | store.FieldSimhash | store.FieldFlags | store.FieldCluster

// point is one available record's clustering input, copied out of the
// scan so that no scanned record is kept or written.
type point struct {
	m     Member
	key   l1Key
	hash  simhash.Fingerprint
	label int64 // the stored cluster ID before this run
}

// draft is a cluster under construction: its points by index.
type draft struct {
	id     int64
	key    l1Key
	points []int
}

// Run clusters every available record in the store and writes final
// cluster IDs back into the records' Cluster field (0 = not part of
// any final cluster), through Store.UpdateRounds and only for the
// rounds whose stored labels change.
func Run(st *store.Store, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	reg := cfg.Metrics
	root := cfg.Tracer.Start("cluster", nil)

	// Collect the records to cluster, those with an HTTP response, in
	// scan order: round by round, IPs ascending. starts[r] is round r's
	// first point.
	spL1 := cfg.Tracer.Start("level1", root)
	stopLevel1 := reg.Histogram("cluster.level1").Time()
	// The stored record count bounds the points: no append regrows.
	total := 0
	for _, m := range st.Metas() {
		total += m.Records
	}
	pts := make([]point, 0, total)
	var starts []int
	st.Scan(scanFields, func(round *store.Round) bool {
		starts = append(starts, len(pts))
		round.Each(func(rec *store.Record) bool {
			if rec.Available() {
				pts = append(pts, point{
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
		spL1.End()
		root.SetAttr(trace.String("error", "no-records"))
		root.End()
		return nil, fmt.Errorf("cluster: no available records to cluster")
	}
	reg.Counter("cluster.records_in").Add(int64(len(pts)))

	// Level 1: strict equality on the five features.
	groups := make(map[l1Key][]int)
	hashSet := make(map[simhash.Fingerprint]struct{})
	for i, p := range pts {
		groups[p.key] = append(groups[p.key], i)
		hashSet[p.hash] = struct{}{}
	}
	stopLevel1()
	spL1.SetAttr(trace.Int("groups", len(groups)))
	spL1.End()

	// Threshold: explicit, or tuned by the gap statistic over the
	// observed simhashes.
	spThresh := cfg.Tracer.Start("threshold", root)
	stopThreshold := reg.Histogram("cluster.threshold").Time()
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = gapThreshold(hashSet, cfg.Seed)
	}
	stopThreshold()
	spThresh.SetAttr(trace.Int("threshold", threshold))
	spThresh.End()

	// Level 2: split each level-1 group by simhash distance, on up to
	// GOMAXPROCS workers pulling group indexes. Each group's output has
	// its own slot, so the schedule cannot change the IDs.
	spL2 := cfg.Tracer.Start("level2", root)
	stopLevel2 := reg.Histogram("cluster.level2").Time()
	keys := make([]l1Key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	// Deterministic order for stable cluster IDs.
	sort.Slice(keys, func(i, j int) bool { return l1Less(keys[i], keys[j]) })

	outs := make([][][]int, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(keys)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				outs[i] = splitBySimhash(pts, groups[keys[i]], threshold)
			}
		}()
	}
	wg.Wait()

	var all []*draft
	for i, out := range outs {
		for _, members := range out {
			all = append(all, &draft{id: int64(len(all) + 1), key: keys[i], points: members})
		}
	}
	secondLevel := len(all)
	stopLevel2()
	spL2.SetAttr(trace.Int("clusters", secondLevel))
	spL2.End()

	// Merge heuristic across clusters.
	spMerge := cfg.Tracer.Start("merge", root)
	stopMerge := reg.Histogram("cluster.merge").Time()
	merged, nMerges := mergeClusters(pts, all, cfg.MergeDistance)
	stopMerge()
	reg.Counter("cluster.merges").Add(int64(nMerges))
	spMerge.SetAttr(trace.Int("merges", nMerges))
	spMerge.End()

	// Cleaning, then numbering the final clusters 1.. and labeling
	// their points (0 = no final cluster).
	spClean := cfg.Tracer.Start("clean", root)
	stopClean := reg.Histogram("cluster.clean").Time()
	labels := make([]int64, len(pts))
	var final, removed []*Cluster
	for _, d := range merged {
		// Points are indexed in scan order, (round, IP) ascending, so
		// sorted indexes give Members their order even where level 2
		// or the merge concatenated runs out of order.
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
	stopClean()
	reg.Counter("cluster.removed").Add(int64(len(removed)))
	reg.Counter("cluster.final").Add(int64(len(final)))
	spClean.SetAttr(trace.Int("removed", len(removed)))
	spClean.End()
	root.SetAttr(trace.Int("records_in", len(pts)), trace.Int("final", len(final)))
	root.End()

	// Persist the labels of the rounds where one moved. A round's
	// points and its records are both in IP order, so one walk joins
	// them.
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
		return nil, fmt.Errorf("cluster: persisting assignments: %w", err)
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

func l1Less(a, b l1Key) bool {
	if a.title != b.title {
		return a.title < b.title
	}
	if a.template != b.template {
		return a.template < b.template
	}
	if a.server != b.server {
		return a.server < b.server
	}
	if a.keywords != b.keywords {
		return a.keywords < b.keywords
	}
	return a.gaID < b.gaID
}

// splitBySimhash single-links a level-1 group's points by simhash
// distance. Identical fingerprints collapse first, so the pairwise
// phase runs over distinct hashes only.
func splitBySimhash(pts []point, group []int, threshold int) [][]int {
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

// mergeClusters applies the §5 merge heuristic: points of the same IP
// in temporal order, simhash distance <= mergeDist, and at least one
// matching level-1 feature join their clusters. The second return is
// the number of cluster pairs actually joined.
func mergeClusters(pts []point, clusters []*draft, mergeDist int) ([]*draft, int) {
	uf := newUnionFind(len(clusters))
	merges := 0

	// Build per-IP point lists with their cluster index.
	type obs struct {
		p  *point
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
			if a.ci == b.ci {
				continue
			}
			if simhash.Distance(a.p.hash, b.p.hash) > mergeDist {
				continue
			}
			if !oneFeatureEqual(a.p.key, b.p.key) {
				continue
			}
			if uf.union(a.ci, b.ci) {
				merges++
			}
		}
	}

	byRoot := map[int]*draft{}
	var order []int
	for i, c := range clusters {
		root := uf.find(i)
		if dst, ok := byRoot[root]; ok {
			dst.points = append(dst.points, c.points...)
		} else {
			byRoot[root] = c
			order = append(order, root)
		}
	}
	out := make([]*draft, 0, len(byRoot))
	for _, r := range order {
		out = append(out, byRoot[r])
	}
	return out, merges
}

// oneFeatureEqual reports whether at least one of the five level-1
// features matches between two points (the merge condition tolerates
// revisions that changed the others).
func oneFeatureEqual(a, b l1Key) bool {
	return (a.title != "" && a.title == b.title) ||
		(a.template != "" && a.template == b.template) ||
		(a.server != "" && a.server == b.server) ||
		(a.keywords != "" && a.keywords == b.keywords) ||
		(a.gaID != "" && a.gaID == b.gaID)
}

// errorTitleFragments flag clusters whose fetch returned no useful
// content (the paper's first cleaning script).
var errorTitleFragments = []string{
	"not found", "error", "forbidden", "unauthorized", "bad request",
	"moved permanently", "unavailable",
}

// defaultPageTitles flag stock server test pages (the paper's second
// cleaning pass, applied to clusters averaging > CleanMinAvgIPs IPs).
var defaultPageTitles = []string{
	"welcome-apache", "welcome to nginx", "iis windows server",
	"test page", "it works",
}

// cleanReason decides whether a cluster is removed, returning the
// reason or "".
func cleanReason(c *Cluster, rounds int, minAvgIPs float64) string {
	title := strings.ToLower(c.Title)
	for _, frag := range errorTitleFragments {
		if strings.Contains(title, frag) {
			return "error-title"
		}
	}
	if rounds > 0 {
		avg := float64(len(c.Members)) / float64(rounds)
		if avg > minAvgIPs {
			for _, frag := range defaultPageTitles {
				if strings.Contains(title, frag) {
					return "default-page"
				}
			}
		}
	}
	return ""
}

// unionFind is a plain weighted quick-union with path compression.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union joins two sets, reporting whether they were distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// gapThreshold tunes the level-2 distance threshold following the gap
// statistic's construction (Tibshirani et al., the "common method for
// estimating the number of clusters" the paper cites): for each
// candidate threshold it compares the log cluster count of the
// observed simhashes against the expectation under a null reference of
// uniformly random fingerprints (which never merge at small Hamming
// distances), and — per the standard one-standard-error rule — picks
// the smallest threshold whose gap is within s of the next one, i.e.
// the point where raising the threshold stops merging real structure.
func gapThreshold(hashes map[simhash.Fingerprint]struct{}, seed int64) int {
	const maxT = 16
	// Order the distinct hashes deterministically (map iteration order
	// must not influence the threshold): gather, sort, subsample.
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
		return 3 // sensible default for tiny inputs
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

	obs := clusterCounts(sample, maxT)

	rng := rand.New(rand.NewSource(seed + 42))
	const refDraws = 3
	refLog := make([][]float64, refDraws)
	for b := range refLog {
		ref := make([]simhash.Fingerprint, len(sample))
		for i := range ref {
			ref[i] = simhash.Fingerprint{Hi: rng.Uint32(), Lo: rng.Uint64()}
		}
		counts := clusterCounts(ref, maxT)
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
		// Floor the tolerance at ~1% of the count: the null reference
		// rarely merges at all, so its variance alone is degenerate.
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

// clusterCounts returns, for every threshold 1..maxT, the number of
// single-linkage clusters over the hashes. Pairs within maxT are
// collected once and merged incrementally as the threshold rises.
func clusterCounts(hashes []simhash.Fingerprint, maxT int) []int {
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
