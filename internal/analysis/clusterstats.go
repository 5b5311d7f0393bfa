package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
	"whowas/internal/timeseries"
)

// ClusteringSummary is Table 6.
type ClusteringSummary struct {
	ResponsiveIPs   int // distinct responsive IPs across the campaign
	UniqueSimhashes int
	TopLevel        int
	SecondLevel     int
	Final           int
}

// Clustering computes Table 6 from the store and clustering result.
func Clustering(st *store.Store, res *cluster.Result) ClusteringSummary {
	ips := map[ipaddr.Addr]bool{}
	st.Scan(store.FieldPorts, func(r *store.Round) bool {
		r.Each(func(rec *store.Record) bool {
			if rec.Responsive() {
				ips[rec.IP] = true
			}
			return true
		})
		return true
	})
	return ClusteringSummary{
		ResponsiveIPs:   len(ips),
		UniqueSimhashes: res.UniqueHashes,
		TopLevel:        res.TopLevel,
		SecondLevel:     res.SecondLevel,
		Final:           res.Final,
	}
}

// Format renders Table 6.
func (c ClusteringSummary) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 6 (%s): clustering summary\n", cloud)
	fmt.Fprintf(&sb, "  Responsive IPs     %8d\n", c.ResponsiveIPs)
	fmt.Fprintf(&sb, "  Unique simhashes   %8d\n", c.UniqueSimhashes)
	fmt.Fprintf(&sb, "  Top-level clusters %8d\n", c.TopLevel)
	fmt.Fprintf(&sb, "  2nd-level clusters %8d\n", c.SecondLevel)
	fmt.Fprintf(&sb, "  Final clusters     %8d\n", c.Final)
	return sb.String()
}

// clusterSeries reads one final cluster as runs: its Members are
// strictly ascending by (round, IP), so each round the cluster is
// available in is one contiguous run of ascending IPs.
type clusterSeries struct {
	c      *cluster.Cluster
	starts []int // starts[i] opens the i-th available round's run; the last entry is len(c.Members)
}

func seriesOf(c *cluster.Cluster) clusterSeries {
	newRun := func(i int) bool { return i == 0 || c.Members[i].Round != c.Members[i-1].Round }
	n := 0
	for i := range c.Members {
		if newRun(i) {
			n++
		}
	}
	s := clusterSeries{c: c, starts: make([]int, 0, n+1)}
	for i := range c.Members {
		if newRun(i) {
			s.starts = append(s.starts, i)
		}
	}
	s.starts = append(s.starts, len(c.Members))
	return s
}

// rounds is the number of rounds the cluster is available in.
func (s clusterSeries) rounds() int { return len(s.starts) - 1 }

// run returns the members of the i-th available round.
func (s clusterSeries) run(i int) []cluster.Member { return s.c.Members[s.starts[i]:s.starts[i+1]] }

// avgSize is the mean member count over rounds where available.
func (s clusterSeries) avgSize() float64 {
	if s.rounds() == 0 {
		return 0
	}
	return float64(len(s.c.Members)) / float64(s.rounds())
}

// avgUptime is the cluster's average IP uptime: the mean over its
// distinct IPs of (rounds the IP is in / rounds the cluster is
// available). Each member is one <IP, round>, so the IPs' round counts
// sum to len(Members) and the mean has this closed form.
func (s clusterSeries) avgUptime(ips int) float64 {
	return float64(len(s.c.Members)) / (float64(ips) * float64(s.rounds()))
}

// ipCounts returns the cluster's distinct IPs and how many of them
// are in every round it is available in. An IP is in a round at most
// once, so once the member IPs are sorted each distinct IP is one run,
// as long as its round count.
func (s clusterSeries) ipCounts() (distinct, stable int) {
	ips := make([]ipaddr.Addr, len(s.c.Members))
	for i, m := range s.c.Members {
		ips[i] = m.IP
	}
	slices.Sort(ips)
	for i := 0; i < len(ips); {
		j := i + 1
		for j < len(ips) && ips[j] == ips[i] {
			j++
		}
		distinct++
		if j-i == s.rounds() {
			stable++
		}
		i = j
	}
	return distinct, stable
}

// departed counts the IPs of run prev missing from run cur; both hold
// ascending IPs.
func departed(prev, cur []cluster.Member) int {
	left, j := 0, 0
	for _, m := range prev {
		for j < len(cur) && cur[j].IP < m.IP {
			j++
		}
		if j == len(cur) || cur[j].IP != m.IP {
			left++
		}
	}
	return left
}

// regionCount counts the distinct regions of the members' IPs. A
// cloud has a handful of regions, so a slice is the set.
func regionCount(ms []cluster.Member, regionOf func(ipaddr.Addr) string) int {
	var seen []string
	for _, m := range ms {
		if r := regionOf(m.IP); !slices.Contains(seen, r) {
			seen = append(seen, r)
		}
	}
	return len(seen)
}

// vpcMembers counts the members carrying the cartography's VPC label.
func vpcMembers(ms []cluster.Member) int {
	n := 0
	for _, m := range ms {
		if m.VPC {
			n++
		}
	}
	return n
}

// SizeMix reports §8.1's cluster-size distribution by average size.
type SizeMix struct {
	Singleton, Small, Medium, Large float64 // 1 / 2-20 / 21-50 / >50
	Total                           int
}

// Sizes computes the average-cluster-size mix.
func Sizes(res *cluster.Result) SizeMix {
	var mix SizeMix
	for _, c := range res.Clusters {
		avg := seriesOf(c).avgSize()
		mix.Total++
		switch {
		case avg <= 1.5:
			mix.Singleton++
		case avg <= 20:
			mix.Small++
		case avg <= 50:
			mix.Medium++
		default:
			mix.Large++
		}
	}
	if mix.Total > 0 {
		n := float64(mix.Total)
		mix.Singleton /= n
		mix.Small /= n
		mix.Medium /= n
		mix.Large /= n
	}
	return mix
}

// Format renders the size mix.
func (m SizeMix) Format(cloud string) string {
	return fmt.Sprintf("Cluster sizes (%s): avg 1 IP %.1f%%  2-20 %.1f%%  21-50 %.2f%%  >50 %.2f%%  (of %d clusters)",
		cloud, 100*m.Singleton, 100*m.Small, 100*m.Medium, 100*m.Large, m.Total)
}

// AvailabilityChange is Figure 10: per round, the fraction of all
// observed clusters whose availability flipped vs the previous round.
type AvailabilityChange struct {
	Points []timeseries.Point // X = round index, Y = fraction
	Avg    float64
}

// ClusterAvailability computes Figure 10.
func ClusterAvailability(st *store.Store, res *cluster.Result) AvailabilityChange {
	nRounds := st.NumRounds()
	total := len(res.Clusters)
	out := AvailabilityChange{}
	if total == 0 || nRounds < 2 {
		return out
	}
	// A cluster flips where one of its runs of consecutive available
	// rounds starts or ends: at round r if it is available in exactly
	// one of r-1 and r.
	flips := make([]int, nRounds)
	flip := func(r int) {
		if r > 0 && r < nRounds {
			flips[r]++
		}
	}
	for _, c := range res.Clusters {
		last := -1 // the last available round seen
		for _, m := range c.Members {
			if m.Round > last+1 {
				flip(last + 1)
				flip(m.Round)
			}
			last = m.Round
		}
		flip(last + 1)
	}
	for r := 1; r < nRounds; r++ {
		frac := float64(flips[r]) / float64(total)
		out.Points = append(out.Points, timeseries.Point{X: float64(r), Y: frac})
		out.Avg += frac
	}
	out.Avg /= float64(len(out.Points))
	return out
}

// Format renders the Figure 10 series.
func (a AvailabilityChange) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10 (%s): cluster availability change per round (avg %.1f%% of all clusters)\n", cloud, 100*a.Avg)
	for _, p := range a.Points {
		fmt.Fprintf(&sb, "  round %2.0f: %5.2f%%\n", p.X, 100*p.Y)
	}
	return sb.String()
}

// PatternRow is one row of Table 11.
type PatternRow struct {
	Pattern string
	Count   int
	Frac    float64
}

// PatternTable is Table 11 plus the §8.1 pattern-0 subgroups.
type PatternTable struct {
	Rows      []PatternRow // all patterns, descending by count
	Total     int
	Ephemeral int // pattern-0 clusters whose PAA median is all zero
}

// SizePatterns computes Table 11: each final cluster's size series is
// reduced with 7-day-median PAA and Algorithm 1's tendency vector.
func SizePatterns(st *store.Store, res *cluster.Result, campaignDays int) PatternTable {
	rounds := st.Metas()
	counts := map[string]int{}
	out := PatternTable{}
	// One series of every round's day, its sizes refilled per cluster.
	samples := make([]timeseries.Sample, len(rounds))
	for i := range rounds {
		samples[i].Day = rounds[i].Day
	}
	for _, c := range res.Clusters {
		s := seriesOf(c)
		allZeroMedian := true
		for i := range samples {
			samples[i].Value = 0
		}
		for i := 0; i < s.rounds(); i++ {
			run := s.run(i)
			samples[run[0].Round].Value = float64(len(run))
		}
		paa := timeseries.PAA(samples, campaignDays, 7)
		for _, v := range paa {
			if v != 0 {
				allZeroMedian = false
				break
			}
		}
		pattern := timeseries.PatternString(timeseries.MergeRuns(timeseries.Tendency(paa)))
		counts[pattern]++
		out.Total++
		if pattern == "0" && allZeroMedian {
			out.Ephemeral++
		}
	}
	for p, n := range counts {
		out.Rows = append(out.Rows, PatternRow{Pattern: p, Count: n, Frac: float64(n) / float64(out.Total)})
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].Count != out.Rows[j].Count {
			return out.Rows[i].Count > out.Rows[j].Count
		}
		return out.Rows[i].Pattern < out.Rows[j].Pattern
	})
	return out
}

// Format renders Table 11's top rows.
func (p PatternTable) Format(cloud string, topN int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 11 (%s): top size-change patterns (%d clusters; %.1f%% ephemeral)\n",
		cloud, p.Total, 100*float64(p.Ephemeral)/float64(max(p.Total, 1)))
	rows := p.Rows
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-14s %8d (%5.1f%%)\n", r.Pattern, r.Count, 100*r.Frac)
	}
	return sb.String()
}

// UptimeCDF is Figure 12: the distribution of average IP uptime across
// clusters of average size >= 2.
type UptimeCDF struct {
	CDF *timeseries.CDF
	// Share of ALL clusters with 100% average IP uptime (§8.1: 75.3%
	// EC2 / 78.9% Azure), and the singleton share.
	FullUptimeFrac float64
	SingletonFrac  float64
}

// IPUptimes computes Figure 12 and the §8.1 uptime headline numbers.
func IPUptimes(res *cluster.Result) UptimeCDF {
	var values []float64
	full, singletons := 0, 0
	for _, c := range res.Clusters {
		s := seriesOf(c)
		if s.rounds() == 0 {
			continue
		}
		ips, _ := s.ipCounts()
		avgUptime := s.avgUptime(ips)
		if avgUptime >= 0.9999 {
			full++
		}
		if s.avgSize() <= 1.5 {
			singletons++
		} else {
			values = append(values, 100*avgUptime)
		}
	}
	total := len(res.Clusters)
	out := UptimeCDF{CDF: timeseries.NewCDF(values)}
	if total > 0 {
		out.FullUptimeFrac = float64(full) / float64(total)
		out.SingletonFrac = float64(singletons) / float64(total)
	}
	return out
}

// Format renders the Figure 12 CDF at decile resolution.
func (u UptimeCDF) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12 (%s): CDF of avg IP uptime, clusters of size >= 2 (n=%d)\n", cloud, u.CDF.N())
	fmt.Fprintf(&sb, "  100%%-uptime clusters (all sizes): %.1f%%   singletons: %.1f%%\n",
		100*u.FullUptimeFrac, 100*u.SingletonFrac)
	for x := 0.0; x <= 100; x += 10 {
		fmt.Fprintf(&sb, "  P(uptime <= %3.0f%%) = %.2f\n", x, u.CDF.At(x))
	}
	return sb.String()
}

// TopClusterRow is one row of Table 15.
type TopClusterRow struct {
	ClusterID    int64
	Title        string
	TotalIPs     int     // unique IPs across the campaign
	MeanIPs      float64 // per available round
	MedianIPs    float64
	MinIPs       int
	MaxIPs       int
	AvgUptime    float64 // average IP uptime, percent
	MaxDeparture float64 // max fraction of IPs leaving between rounds, percent
	StableIPs    float64 // percent of unique IPs used in every round
	Regions      int
	MeanVPCIPs   float64
}

// TopClusters computes Table 15's top-N rows by mean size. regionOf
// maps an IP to its region name (from the provider's published
// ranges).
func TopClusters(res *cluster.Result, topN int, regionOf func(ipaddr.Addr) string) []TopClusterRow {
	type scored struct {
		s    clusterSeries
		mean float64
	}
	var all []scored
	for _, c := range res.Clusters {
		s := seriesOf(c)
		all = append(all, scored{s, s.avgSize()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mean != all[j].mean {
			return all[i].mean > all[j].mean
		}
		return all[i].s.c.ID < all[j].s.c.ID
	})
	if topN > 0 && len(all) > topN {
		all = all[:topN]
	}
	var rows []TopClusterRow
	for _, sc := range all {
		s, c := sc.s, sc.s.c
		row := TopClusterRow{ClusterID: c.ID, Title: c.Title, MeanIPs: sc.mean}
		sizes := make([]float64, s.rounds())
		row.MinIPs = 1 << 30
		for i := range sizes {
			n := len(s.run(i))
			sizes[i] = float64(n)
			row.MinIPs = min(row.MinIPs, n)
			row.MaxIPs = max(row.MaxIPs, n)
			// Max departure between consecutive available rounds.
			if i > 0 {
				prev := s.run(i - 1)
				row.MaxDeparture = max(row.MaxDeparture, 100*float64(departed(prev, s.run(i)))/float64(len(prev)))
			}
		}
		row.MedianIPs = timeseries.NewCDF(sizes).Quantile(0.5)
		var stable int
		row.TotalIPs, stable = s.ipCounts()
		row.AvgUptime = 100 * s.avgUptime(row.TotalIPs)
		row.StableIPs = 100 * float64(stable) / float64(row.TotalIPs)
		if regionOf != nil {
			row.Regions = regionCount(c.Members, regionOf)
		}
		if s.rounds() > 0 {
			row.MeanVPCIPs = float64(vpcMembers(c.Members)) / float64(s.rounds())
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTopClusters renders Table 15.
func FormatTopClusters(cloud string, rows []TopClusterRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 15 (%s): top clusters by mean IPs per round\n", cloud)
	fmt.Fprintf(&sb, "  %3s %8s %8s %8s %6s %6s %9s %9s %8s %7s %8s\n",
		"#", "TotalIP", "MeanIP", "MedianIP", "MinIP", "MaxIP", "Uptime%", "MaxDep%", "Stable%", "Regions", "MeanVPC")
	for i, r := range rows {
		fmt.Fprintf(&sb, "  %3d %8d %8.0f %8.0f %6d %6d %9.1f %9.1f %8.1f %7d %8.0f\n",
			i+1, r.TotalIPs, r.MeanIPs, r.MedianIPs, r.MinIPs, r.MaxIPs,
			r.AvgUptime, r.MaxDeparture, r.StableIPs, r.Regions, r.MeanVPCIPs)
	}
	return sb.String()
}

// RegionUsage reports §8.1's region statistics: the share of clusters
// using a single region.
type RegionUsage struct {
	SingleRegion float64
	Total        int
}

// Regions computes region usage per cluster.
func Regions(res *cluster.Result, regionOf func(ipaddr.Addr) string) RegionUsage {
	out := RegionUsage{}
	if regionOf == nil {
		return out
	}
	single := 0
	for _, c := range res.Clusters {
		out.Total++
		if regionCount(c.Members, regionOf) == 1 {
			single++
		}
	}
	if out.Total > 0 {
		out.SingleRegion = float64(single) / float64(out.Total)
	}
	return out
}

// CrossCloudOverlap estimates how many clusters appear in both clouds
// by matching level-1 identity features across two clustering results
// (the paper found 980 such clusters). Matching requires a
// non-generic key: a Google Analytics ID, or a non-empty title plus
// keywords.
func CrossCloudOverlap(a, b *cluster.Result) int {
	keyOf := func(c *cluster.Cluster) string {
		if c.AnalyticsID != "" {
			return "ga:" + c.AnalyticsID
		}
		if c.Title != "" && c.Keywords != "" {
			return "tk:" + c.Title + "|" + c.Keywords
		}
		return ""
	}
	seen := map[string]bool{}
	for _, c := range a.Clusters {
		if k := keyOf(c); k != "" {
			seen[k] = true
		}
	}
	overlap := 0
	matched := map[string]bool{}
	for _, c := range b.Clusters {
		if k := keyOf(c); k != "" && seen[k] && !matched[k] {
			matched[k] = true
			overlap++
		}
	}
	return overlap
}
