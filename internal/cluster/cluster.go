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
	"sort"
	"strings"
	"sync"

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
	// Workers bounds level-2 clustering parallelism (0 = GOMAXPROCS
	// behaviour via a modest default).
	Workers int
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
// paper's defaults (merge distance 3, clean cutoff 20, 8 workers). Run
// applies it internally; it is exported so callers and tests can
// observe the resolved values instead of re-stating them.
func (c Config) WithDefaults() Config {
	out := c
	if out.MergeDistance <= 0 {
		out.MergeDistance = 3
	}
	if out.CleanMinAvgIPs <= 0 {
		out.CleanMinAvgIPs = 20
	}
	if out.Workers <= 0 {
		out.Workers = 8
	}
	return out
}

// Cluster is one final cluster: a set of <IP, round> records believed
// to be the same web application.
type Cluster struct {
	ID      int64
	Records []*store.Record
	// Representative level-1 features (from the first member).
	Title, Template, Server, Keywords, AnalyticsID string
	// Removed marks clusters dropped by the cleaning step; their
	// records carry Cluster = 0.
	Removed bool
	// RemovedReason explains a removal ("error-title", "default-page").
	RemovedReason string
}

// Rounds returns the distinct rounds in which the cluster was
// observed, ascending.
func (c *Cluster) Rounds() []int {
	seen := map[int]bool{}
	for _, r := range c.Records {
		seen[r.Round] = true
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// IPsInRound returns the distinct IPs associated with the cluster in a
// round.
func (c *Cluster) IPsInRound(round int) int {
	n := 0
	seen := map[uint32]bool{}
	for _, r := range c.Records {
		if r.Round == round && !seen[uint32(r.IP)] {
			seen[uint32(r.IP)] = true
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

// ByID returns the final cluster with the given ID, or nil.
func (r *Result) ByID(id int64) *Cluster {
	for _, c := range r.Clusters {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// l1Key is the strict-equality level-1 grouping key.
type l1Key struct {
	title, template, server, keywords, gaID string
}

func keyOf(rec *store.Record) l1Key {
	return l1Key{rec.Title, rec.Template, rec.Server, rec.Keywords, rec.AnalyticsID}
}

// Run clusters every available record in the store and writes final
// cluster IDs back into the records' Cluster field (0 = not part of
// any final cluster).
func Run(st *store.Store, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	reg := cfg.Metrics
	root := cfg.Tracer.Start("cluster", nil)

	// Collect the records to cluster: those with an HTTP response. They
	// are read whole — the final clusters hand them to analyses that
	// read any field — but streamed, so a round's unavailable records
	// are not kept.
	spL1 := cfg.Tracer.Start("level1", root)
	stopLevel1 := reg.Histogram("cluster.level1").Time()
	var records []*store.Record
	st.EachRound(func(round *store.Round) bool {
		round.Each(func(rec *store.Record) bool {
			if rec.Available() {
				records = append(records, rec)
			}
			return true
		})
		return true
	})
	if len(records) == 0 {
		spL1.End()
		root.SetAttr(trace.String("error", "no-records"))
		root.End()
		return nil, fmt.Errorf("cluster: no available records to cluster")
	}
	reg.Counter("cluster.records_in").Add(int64(len(records)))

	// Level 1: strict equality on the five features.
	groups := make(map[l1Key][]*store.Record)
	hashSet := make(map[simhash.Fingerprint]struct{})
	for _, rec := range records {
		k := keyOf(rec)
		groups[k] = append(groups[k], rec)
		hashSet[rec.Simhash] = struct{}{}
	}
	stopLevel1()
	spL1.SetAttr(trace.Int("groups", len(groups)))
	spL1.End()

	// Threshold: explicit, or tuned by the gap statistic over the
	// observed level-1 groups.
	spThresh := cfg.Tracer.Start("threshold", root)
	stopThreshold := reg.Histogram("cluster.threshold").Time()
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = gapThreshold(groups, cfg.Seed)
	}
	stopThreshold()
	spThresh.SetAttr(trace.Int("threshold", threshold))
	spThresh.End()

	// Level 2: split each level-1 group by simhash distance, in
	// parallel across groups.
	spL2 := cfg.Tracer.Start("level2", root)
	stopLevel2 := reg.Histogram("cluster.level2").Time()
	type l2Out struct {
		key      l1Key
		clusters [][]*store.Record
	}
	keys := make([]l1Key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	// Deterministic order for stable cluster IDs.
	sort.Slice(keys, func(i, j int) bool { return l1Less(keys[i], keys[j]) })

	outs := make([]l2Out, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k l1Key) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[i] = l2Out{key: k, clusters: splitBySimhash(groups[k], threshold)}
		}(i, k)
	}
	wg.Wait()

	secondLevel := 0
	var all []*Cluster
	var nextID int64 = 1
	for _, o := range outs {
		for _, members := range o.clusters {
			secondLevel++
			c := &Cluster{
				ID:          nextID,
				Records:     members,
				Title:       o.key.title,
				Template:    o.key.template,
				Server:      o.key.server,
				Keywords:    o.key.keywords,
				AnalyticsID: o.key.gaID,
			}
			nextID++
			all = append(all, c)
		}
	}
	stopLevel2()
	spL2.SetAttr(trace.Int("clusters", secondLevel))
	spL2.End()

	// Merge heuristic across clusters.
	spMerge := cfg.Tracer.Start("merge", root)
	stopMerge := reg.Histogram("cluster.merge").Time()
	merged, nMerges := mergeClusters(all, cfg.MergeDistance)
	stopMerge()
	reg.Counter("cluster.merges").Add(int64(nMerges))
	spMerge.SetAttr(trace.Int("merges", nMerges))
	spMerge.End()

	// Cleaning.
	spClean := cfg.Tracer.Start("clean", root)
	stopClean := reg.Histogram("cluster.clean").Time()
	rounds := st.NumRounds()
	var final, removed []*Cluster
	for _, c := range merged {
		if reason := cleanReason(c, rounds, cfg.CleanMinAvgIPs); reason != "" {
			c.Removed = true
			c.RemovedReason = reason
			removed = append(removed, c)
			continue
		}
		final = append(final, c)
	}
	stopClean()
	reg.Counter("cluster.removed").Add(int64(len(removed)))
	reg.Counter("cluster.final").Add(int64(len(final)))
	spClean.SetAttr(trace.Int("removed", len(removed)))
	spClean.End()
	root.SetAttr(trace.Int("records_in", len(records)), trace.Int("final", len(final)))
	root.End()

	// Re-number final clusters and label records. The collected copies
	// are mutated directly so the Result's cluster members carry their
	// IDs; the same assignment is then persisted through the store's
	// update path, which is what survives a lazy storage backend.
	type recKey struct {
		round int
		ip    ipaddr.Addr
	}
	// The changed-round set must be computed against the records'
	// pre-clustering IDs, before the in-place labeling below: on the
	// memory backend the records seen here and the records seen by
	// UpdateRounds are the same pointers, so an after-the-fact "did it
	// change" comparison inside the update would read its own mutation.
	// Only the changed rounds are read back and rewritten.
	assigned := make(map[recKey]int64, len(records))
	orig := make(map[recKey]int64, len(records))
	for _, rec := range records {
		k := recKey{rec.Round, rec.IP}
		orig[k] = rec.Cluster
		rec.Cluster = 0
		assigned[k] = 0
	}
	for i, c := range final {
		c.ID = int64(i + 1)
		for _, rec := range c.Records {
			rec.Cluster = c.ID
			assigned[recKey{rec.Round, rec.IP}] = c.ID
		}
	}
	changedRounds := make(map[int]bool)
	for k, id := range assigned {
		if orig[k] != id {
			changedRounds[k.round] = true
		}
	}
	rewrite := make([]int, 0, len(changedRounds))
	for r := range changedRounds {
		rewrite = append(rewrite, r)
	}
	sort.Ints(rewrite)
	err := st.UpdateRounds(rewrite, func(round *store.Round) bool {
		round.Each(func(rec *store.Record) bool {
			if id, ok := assigned[recKey{rec.Round, rec.IP}]; ok {
				rec.Cluster = id
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

// splitBySimhash single-links a level-1 group's records by simhash
// distance. Identical fingerprints collapse first, so the pairwise
// phase runs over distinct hashes only.
func splitBySimhash(records []*store.Record, threshold int) [][]*store.Record {
	byHash := make(map[simhash.Fingerprint][]*store.Record)
	var hashes []simhash.Fingerprint
	for _, rec := range records {
		if _, ok := byHash[rec.Simhash]; !ok {
			hashes = append(hashes, rec.Simhash)
		}
		byHash[rec.Simhash] = append(byHash[rec.Simhash], rec)
	}
	uf := newUnionFind(len(hashes))
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			if simhash.Distance(hashes[i], hashes[j]) <= threshold {
				uf.union(i, j)
			}
		}
	}
	byRoot := map[int][]*store.Record{}
	for i, h := range hashes {
		root := uf.find(i)
		byRoot[root] = append(byRoot[root], byHash[h]...)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]*store.Record, 0, len(byRoot))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// mergeClusters applies the §5 merge heuristic: records of the same IP
// in temporal order, simhash distance <= mergeDist, and at least one
// matching level-1 feature join their clusters. The second return is
// the number of cluster pairs actually joined.
func mergeClusters(clusters []*Cluster, mergeDist int) ([]*Cluster, int) {
	idx := map[*Cluster]int{}
	for i, c := range clusters {
		idx[c] = i
	}
	uf := newUnionFind(len(clusters))
	merges := 0

	// Build per-IP record lists with their cluster index.
	type obs struct {
		rec *store.Record
		ci  int
	}
	byIP := map[uint32][]obs{}
	for i, c := range clusters {
		for _, rec := range c.Records {
			byIP[uint32(rec.IP)] = append(byIP[uint32(rec.IP)], obs{rec, i})
		}
	}
	for _, list := range byIP {
		sort.Slice(list, func(i, j int) bool { return list[i].rec.Round < list[j].rec.Round })
		for i := 1; i < len(list); i++ {
			a, b := list[i-1], list[i]
			if a.ci == b.ci {
				continue
			}
			if simhash.Distance(a.rec.Simhash, b.rec.Simhash) > mergeDist {
				continue
			}
			if !oneFeatureEqual(a.rec, b.rec) {
				continue
			}
			if uf.union(a.ci, b.ci) {
				merges++
			}
		}
	}

	byRoot := map[int]*Cluster{}
	var order []int
	for i, c := range clusters {
		root := uf.find(i)
		if dst, ok := byRoot[root]; ok {
			dst.Records = append(dst.Records, c.Records...)
		} else {
			byRoot[root] = c
			order = append(order, root)
		}
	}
	out := make([]*Cluster, 0, len(byRoot))
	for _, r := range order {
		out = append(out, byRoot[r])
	}
	return out, merges
}

// oneFeatureEqual reports whether at least one of the five level-1
// features matches between two records (the merge condition tolerates
// revisions that changed the others).
func oneFeatureEqual(a, b *store.Record) bool {
	return (a.Title != "" && a.Title == b.Title) ||
		(a.Template != "" && a.Template == b.Template) ||
		(a.Server != "" && a.Server == b.Server) ||
		(a.Keywords != "" && a.Keywords == b.Keywords) ||
		(a.AnalyticsID != "" && a.AnalyticsID == b.AnalyticsID)
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
		avg := float64(len(c.Records)) / float64(rounds)
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
func gapThreshold(groups map[l1Key][]*store.Record, seed int64) int {
	const maxT = 16
	// Collect distinct hashes deterministically (map iteration order
	// must not influence the threshold): gather, sort, subsample.
	seen := map[simhash.Fingerprint]bool{}
	for _, recs := range groups {
		for _, r := range recs {
			seen[r.Simhash] = true
		}
	}
	sample := make([]simhash.Fingerprint, 0, len(seen))
	for h := range seen {
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
