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
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	// child per pass (scan, level1, threshold, level2, merge, clean);
	// the scan's span covers the decode and the level-1 ids.
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
// scan so that no scanned record is kept or written. Its five level-1
// features are its group's key, held once per group.
type point struct {
	m     Member
	group int32 // level-1 group id, in order of first appearance
	hash  simhash.Fingerprint
	label int64 // the stored cluster ID before this run
}

// Run clusters every available record in the store and writes final
// cluster IDs back into the records' Cluster field (0 = not part of
// any final cluster), through Store.UpdateRounds and only for the
// rounds whose stored labels change.
//
// Every pass works on flat slices indexed by point, in scan order
// ((round, IP) ascending). The scan callback gives each available
// record its level-1 group id from one map of keys; a point holds its
// Member, that id, its simhash and its stored label, and the five
// features are kept once per group. A counting sort lays each group's
// points out in scan order, and each group's distinct fingerprints are
// collected once: their sorted union is the gap statistic's input, and
// level 2 single-links them on workers that reuse their own union-find.
// The merge walks the rounds, joining each round's IP-ascending points
// against the IP-ascending list of every IP's latest earlier point, so
// each IP's consecutive observations meet without a map or a sort. The
// gap statistic's count curves bucket their pairs by distance.
func Run(st *store.Store, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	reg := cfg.Metrics
	root := cfg.Tracer.Start("cluster", nil)

	// Collect the records to cluster, those with an HTTP response, in
	// scan order: round by round, IPs ascending. starts[r] is round r's
	// first point. Each gets its level-1 group id as it is copied.
	spScan := cfg.Tracer.Start("scan", root)
	stopScan := reg.Histogram("cluster.scan").Time()
	// The stored record count bounds the points: no append regrows.
	total := 0
	for _, m := range st.Metas() {
		total += m.Records
	}
	pts := make([]point, 0, total)
	var starts []int
	ids := make(map[l1Key]int32)
	var keys []l1Key // by group id
	st.Scan(scanFields, func(round *store.Round) bool {
		starts = append(starts, len(pts))
		round.Each(func(rec *store.Record) bool {
			if !rec.Available() {
				return true
			}
			k := l1Key{rec.Title, rec.Template, rec.Server, rec.Keywords, rec.AnalyticsID}
			g, ok := ids[k]
			if !ok {
				g = int32(len(keys))
				ids[k] = g
				keys = append(keys, k)
			}
			pts = append(pts, point{
				m:     Member{IP: rec.IP, Round: rec.Round, VPC: rec.VPC},
				group: g,
				hash:  rec.Simhash,
				label: rec.Cluster,
			})
			return true
		})
		return true
	})
	rounds := len(starts)
	starts = append(starts, len(pts))
	stopScan()
	spScan.SetAttr(trace.Int("points", len(pts)))
	spScan.End()
	if len(pts) == 0 {
		root.SetAttr(trace.String("error", "no-records"))
		root.End()
		return nil, fmt.Errorf("cluster: no available records to cluster")
	}
	reg.Counter("cluster.records_in").Add(int64(len(pts)))

	// Level 1: lay the groups' points out, then collect each group's
	// distinct fingerprints in order of first appearance. hashes[
	// hashStart[g]:hashStart[g+1]] are group g's; slot[i] is point i's
	// fingerprint's index in hashes.
	spL1 := cfg.Tracer.Start("level1", root)
	stopLevel1 := reg.Histogram("cluster.level1").Time()
	byGroup, groupStart := bucketSort(len(pts), len(keys), func(i int) int { return int(pts[i].group) })
	hashes := make([]simhash.Fingerprint, 0, len(keys))
	hashStart := make([]int32, len(keys)+1)
	slot := make([]int32, len(pts))
	seen := make(map[simhash.Fingerprint]int32)
	for g := range keys {
		clear(seen)
		for _, i := range byGroup[groupStart[g]:groupStart[g+1]] {
			h := pts[i].hash
			s, ok := seen[h]
			if !ok {
				s = int32(len(hashes))
				seen[h] = s
				hashes = append(hashes, h)
			}
			slot[i] = s
		}
		hashStart[g+1] = int32(len(hashes))
	}
	unique := slices.Clone(hashes)
	slices.SortFunc(unique, func(a, b simhash.Fingerprint) int {
		return cmp.Or(cmp.Compare(a.Hi, b.Hi), cmp.Compare(a.Lo, b.Lo))
	})
	unique = slices.Compact(unique)
	stopLevel1()
	spL1.SetAttr(trace.Int("groups", len(keys)))
	spL1.End()

	// Threshold: explicit, or tuned by the gap statistic over the
	// observed simhashes.
	spThresh := cfg.Tracer.Start("threshold", root)
	stopThreshold := reg.Histogram("cluster.threshold").Time()
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = gapThreshold(unique, cfg.Seed)
	}
	stopThreshold()
	spThresh.SetAttr(trace.Int("threshold", threshold))
	spThresh.End()

	// Level 2: split each level-1 group by simhash distance, on up to
	// GOMAXPROCS workers pulling groups in key order. sub[k] is
	// hashes[k]'s sub-cluster in its group and nsub[r] the count of
	// the r-th group in key order: each group writes its own ranges,
	// so the schedule cannot change the IDs.
	spL2 := cfg.Tracer.Start("level2", root)
	stopLevel2 := reg.Histogram("cluster.level2").Time()
	order := make([]int32, len(keys))
	for g := range order {
		order[g] = int32(g)
	}
	// Deterministic order for stable cluster IDs.
	slices.SortFunc(order, func(a, b int32) int { return l1Compare(keys[a], keys[b]) })
	sub := make([]int32, len(hashes))
	nsub := make([]int32, len(order))
	parallel(len(order), func() func(int) {
		var uf unionFind
		return func(r int) {
			lo, hi := hashStart[order[r]], hashStart[order[r]+1]
			nsub[r] = splitBySimhash(hashes[lo:hi], sub[lo:hi], threshold, &uf)
		}
	})
	// Drafts are numbered group by group in key order, each group's
	// sub-clusters in order; draft d's ID is d+1.
	base := make([]int32, len(keys)) // by group id: its first draft
	draftGroup := make([]int32, 0, len(hashes))
	for r, g := range order {
		base[g] = int32(len(draftGroup))
		for range nsub[r] {
			draftGroup = append(draftGroup, g)
		}
	}
	draftOf := slot // slot is not read again
	for i := range pts {
		draftOf[i] = base[pts[i].group] + sub[slot[i]]
	}
	secondLevel := len(draftGroup)
	stopLevel2()
	spL2.SetAttr(trace.Int("clusters", secondLevel))
	spL2.End()

	// Merge heuristic across clusters.
	spMerge := cfg.Tracer.Start("merge", root)
	stopMerge := reg.Histogram("cluster.merge").Time()
	comp, firstDraft := mergeDrafts(pts, starts, draftOf, keys, secondLevel, cfg.MergeDistance)
	nMerges := secondLevel - len(firstDraft)
	stopMerge()
	reg.Counter("cluster.merges").Add(int64(nMerges))
	spMerge.SetAttr(trace.Int("merges", nMerges))
	spMerge.End()

	// Cleaning, then numbering the final clusters 1.. and labeling
	// their points (0 = no final cluster). A counting sort by component
	// keeps each cluster's points in scan order, which is Members'
	// (round, IP) order, and all Members share one array.
	spClean := cfg.Tracer.Start("clean", root)
	stopClean := reg.Histogram("cluster.clean").Time()
	byComp, compStart := bucketSort(len(pts), len(firstDraft), func(i int) int { return int(comp[draftOf[i]]) })
	all := make([]Member, len(pts))
	for j, i := range byComp {
		all[j] = pts[i].m
	}
	clusters := make([]Cluster, len(firstDraft))
	labels := make([]int64, len(pts))
	var final, removed []*Cluster
	for ci, d := range firstDraft {
		key := keys[draftGroup[d]]
		lo, hi := compStart[ci], compStart[ci+1]
		c := &clusters[ci]
		*c = Cluster{
			ID:          int64(d) + 1,
			Members:     all[lo:hi:hi],
			Title:       key.title,
			Template:    key.template,
			Server:      key.server,
			Keywords:    key.keywords,
			AnalyticsID: key.gaID,
		}
		if reason := cleanReason(c, rounds, cfg.CleanMinAvgIPs); reason != "" {
			c.Removed = true
			c.RemovedReason = reason
			removed = append(removed, c)
			continue
		}
		c.ID = int64(len(final) + 1)
		for _, i := range byComp[lo:hi] {
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
		TopLevel:        len(keys),
		SecondLevel:     secondLevel,
		Final:           len(final),
		Threshold:       threshold,
		UniqueHashes:    len(unique),
		Clusters:        final,
		RemovedClusters: removed,
	}, nil
}

func l1Compare(a, b l1Key) int {
	return cmp.Or(strings.Compare(a.title, b.title), strings.Compare(a.template, b.template),
		strings.Compare(a.server, b.server), strings.Compare(a.keywords, b.keywords), strings.Compare(a.gaID, b.gaID))
}

// bucketSort returns the indexes 0..n-1 grouped by key(i), a value in
// [0, keys): key k's indexes, ascending, are idx[start[k]:start[k+1]].
func bucketSort(n, keys int, key func(i int) int) (idx, start []int) {
	start = make([]int, keys+1)
	for i := 0; i < n; i++ {
		start[key(i)+1]++
	}
	for k := 0; k < keys; k++ {
		start[k+1] += start[k]
	}
	idx = make([]int, n)
	next := slices.Clone(start[:keys])
	for i := 0; i < n; i++ {
		k := key(i)
		idx[next[k]] = i
		next[k]++
	}
	return idx, start
}

// parallel runs tasks 0..n-1 on up to GOMAXPROCS workers pulling task
// indexes. Each worker takes its task function from newWorker, so it
// can keep scratch of its own; each task writes only its own outputs.
func parallel(n int, newWorker func() func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := newWorker()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				task(i)
			}
		}()
	}
	wg.Wait()
}

// splitBySimhash single-links a level-1 group's distinct fingerprints,
// in order of first appearance, by simhash distance, and writes each
// one's sub-cluster into sub: sub-clusters are numbered by ascending
// union-find root. It returns the sub-cluster count. uf is the
// caller's scratch.
func splitBySimhash(hashes []simhash.Fingerprint, sub []int32, threshold int, uf *unionFind) int32 {
	uf.reset(len(hashes))
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			if simhash.Distance(hashes[i], hashes[j]) <= threshold {
				uf.union(i, j)
			}
		}
	}
	n := int32(0)
	for k := range hashes {
		if uf.find(k) == k {
			sub[k] = n
			n++
		}
	}
	for k := range hashes {
		sub[k] = sub[uf.find(k)]
	}
	return n
}

// mergeDrafts applies the §5 merge heuristic over drafts 0..drafts-1:
// consecutive observations of an IP, simhash distance <= mergeDist,
// and at least one matching level-1 feature join their drafts. latest
// holds, IP-ascending, the latest point of every IP seen so far; each
// round's points, IP-ascending too, are merge-joined against it and
// replace their IP's entry.
//
// Each set of joined drafts is one cluster, numbered in the order of
// its lowest draft, under which it is kept: comp[d] is draft d's
// cluster and first[c] cluster c's lowest draft. Neither depends on
// the order of the unions.
func mergeDrafts(pts []point, starts []int, draftOf []int32, keys []l1Key, drafts, mergeDist int) (comp, first []int32) {
	uf := newUnionFind(drafts)
	var latest, next []int
	for r := 0; r+1 < len(starts); r++ {
		next = next[:0]
		j := 0
		for i := starts[r]; i < starts[r+1]; i++ {
			ip := pts[i].m.IP
			for j < len(latest) && pts[latest[j]].m.IP < ip {
				next = append(next, latest[j])
				j++
			}
			if j < len(latest) && pts[latest[j]].m.IP == ip {
				prev := latest[j]
				a, b := &pts[prev], &pts[i]
				if draftOf[prev] != draftOf[i] && simhash.Distance(a.hash, b.hash) <= mergeDist &&
					oneFeatureEqual(keys[a.group], keys[b.group]) {
					uf.union(int(draftOf[prev]), int(draftOf[i]))
				}
				j++
			}
			next = append(next, i)
		}
		next = append(next, latest[j:]...)
		latest, next = next, latest
	}
	// A root's entry holds its cluster from the first (lowest) of its
	// drafts on; a draft's, once it is passed.
	comp = make([]int32, drafts)
	for d := range comp {
		comp[d] = -1
	}
	for d := range comp {
		r := uf.find(d)
		if comp[r] < 0 {
			comp[r] = int32(len(first))
			first = append(first, int32(d))
		}
		comp[d] = comp[r]
	}
	return comp, first
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
	uf := &unionFind{}
	uf.reset(n)
	return uf
}

// reset makes n singletons, reusing the slices where they fit.
func (u *unionFind) reset(n int) {
	if cap(u.parent) < n {
		u.parent, u.rank = make([]int, n), make([]int, n)
	}
	u.parent, u.rank = u.parent[:n], u.rank[:n]
	for i := range u.parent {
		u.parent[i], u.rank[i] = i, 0
	}
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
//
// sample is the distinct fingerprints, ascending by (Hi, Lo).
func gapThreshold(sample []simhash.Fingerprint, seed int64) int {
	const maxT = 16
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

	// The reference draws come off the rng in order first; then the
	// observed curve and the references' run on workers.
	rng := rand.New(rand.NewSource(seed + 42))
	const refDraws = 3
	sets := [refDraws + 1][]simhash.Fingerprint{sample}
	for b := 1; b <= refDraws; b++ {
		ref := make([]simhash.Fingerprint, len(sample))
		for i := range ref {
			ref[i] = simhash.Fingerprint{Hi: rng.Uint32(), Lo: rng.Uint64()}
		}
		sets[b] = ref
	}
	var counts [refDraws + 1][]int
	parallel(len(sets), func() func(int) {
		return func(b int) { counts[b] = clusterCounts(sets[b], maxT) }
	})
	obs := counts[0]
	refLog := make([][]float64, refDraws)
	for b := range refLog {
		refLog[b] = make([]float64, maxT+1)
		for t := 1; t <= maxT; t++ {
			refLog[b][t] = math.Log(float64(counts[b+1][t]))
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
// bucketed by distance once and merged bucket by bucket as the
// threshold rises; a count does not depend on the order of the unions.
func clusterCounts(hashes []simhash.Fingerprint, maxT int) []int {
	byDist := make([][][2]int32, maxT+1)
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			if d := simhash.Distance(hashes[i], hashes[j]); d <= maxT {
				byDist[d] = append(byDist[d], [2]int32{int32(i), int32(j)})
			}
		}
	}
	uf := newUnionFind(len(hashes))
	comps := len(hashes)
	counts := make([]int, maxT+1)
	for t := 0; t <= maxT; t++ {
		for _, p := range byDist[t] {
			if uf.union(int(p[0]), int(p[1])) {
				comps--
			}
		}
		if t > 0 {
			counts[t] = comps
		}
	}
	return counts
}
