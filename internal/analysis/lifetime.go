package analysis

import (
	"fmt"
	"sort"
	"strings"

	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// ClusterUptimeStats reproduces the §8.1 lifetime/uptime text results:
// the lifetime of a cluster runs from its first to its last available
// round, uptime is the fraction of rounds in between where it was
// available, and larger clusters are more available.
type ClusterUptimeStats struct {
	// Singleton-cluster uptime shares (§8.1: 54.3% at 100%, 89.1%
	// >= 90%, 92.7% >= 80% on EC2).
	SingletonFull, Singleton90, Singleton80 float64
	// Size-2 clusters at 100% uptime (§8.1: 86.4%).
	Size2Full float64
	// AllLargeFull reports whether every cluster of size >= LargeSize
	// had 100% uptime (§8.1: true at size >= 18).
	LargeSize    int
	AllLargeFull bool
	// LowUptimeFrac is the share of clusters below 90% uptime (§8.1:
	// 9.4% EC2 / 10.6% Azure).
	LowUptimeFrac float64
}

// clusterUptime computes one cluster's lifetime uptime: available
// rounds over rounds spanned by [first, last].
func clusterUptime(s clusterSeries) float64 {
	if s.rounds() == 0 {
		return 0
	}
	ms := s.c.Members
	span := ms[len(ms)-1].Round - ms[0].Round + 1
	return float64(s.rounds()) / float64(span)
}

// ClusterUptimes computes the §8.1 uptime breakdown.
func ClusterUptimes(res *cluster.Result) ClusterUptimeStats {
	out := ClusterUptimeStats{LargeSize: 18, AllLargeFull: true}
	var nSingle, single100, single90, single80 float64
	var nSize2, size2100 float64
	var low, total float64
	for _, c := range res.Clusters {
		s := seriesOf(c)
		if s.rounds() == 0 {
			continue
		}
		up := clusterUptime(s)
		avg := s.avgSize()
		total++
		if up < 0.9 {
			low++
		}
		switch {
		case avg <= 1.5:
			nSingle++
			if up >= 0.9999 {
				single100++
			}
			if up >= 0.9 {
				single90++
			}
			if up >= 0.8 {
				single80++
			}
		case avg < 2.5:
			nSize2++
			if up >= 0.9999 {
				size2100++
			}
		}
		if int(avg+0.5) >= out.LargeSize && up < 0.9999 {
			out.AllLargeFull = false
		}
	}
	if nSingle > 0 {
		out.SingletonFull = single100 / nSingle
		out.Singleton90 = single90 / nSingle
		out.Singleton80 = single80 / nSingle
	}
	if nSize2 > 0 {
		out.Size2Full = size2100 / nSize2
	}
	if total > 0 {
		out.LowUptimeFrac = low / total
	}
	return out
}

// Format renders the uptime breakdown.
func (c ClusterUptimeStats) Format(cloud string) string {
	return fmt.Sprintf(
		"Cluster uptime (%s): singletons 100%%: %.1f%%  >=90%%: %.1f%%  >=80%%: %.1f%% | size-2 100%%: %.1f%% | all >=%d-IP clusters fully up: %v | <90%% uptime: %.1f%%",
		cloud, 100*c.SingletonFull, 100*c.Singleton90, 100*c.Singleton80,
		100*c.Size2Full, c.LargeSize, c.AllLargeFull, 100*c.LowUptimeFrac)
}

// RegionChangeStats reproduces §8.1's region-usage dynamics: most
// clusters keep the same region set over their lifetime; a few add or
// drop one or two regions.
type RegionChangeStats struct {
	Same, PlusOne, PlusTwo, MinusOne, MinusTwo float64
	Total                                      int
}

// RegionChanges compares each cluster's region set in the first and
// second halves of its life.
func RegionChanges(res *cluster.Result, regionOf func(ipaddr.Addr) string) RegionChangeStats {
	out := RegionChangeStats{}
	if regionOf == nil {
		return out
	}
	var same, p1, p2, m1, m2 float64
	for _, c := range res.Clusters {
		s := seriesOf(c)
		// Early is every run up to and including the middle available
		// round's; late is the rest.
		split := len(c.Members)
		if s.rounds() >= 2 {
			split = s.starts[s.rounds()/2+1]
		}
		if split == len(c.Members) { // nothing after the middle round
			out.Total++
			same++
			continue
		}
		delta := regionCount(c.Members[split:], regionOf) - regionCount(c.Members[:split], regionOf)
		out.Total++
		switch {
		case delta == 0:
			same++
		case delta == 1:
			p1++
		case delta >= 2:
			p2++
		case delta == -1:
			m1++
		default:
			m2++
		}
	}
	if out.Total > 0 {
		n := float64(out.Total)
		out.Same = same / n
		out.PlusOne = p1 / n
		out.PlusTwo = p2 / n
		out.MinusOne = m1 / n
		out.MinusTwo = m2 / n
	}
	return out
}

// Format renders the region-change shares.
func (r RegionChangeStats) Format(cloud string) string {
	return fmt.Sprintf("Region changes (%s): same %.2f%%  +1 %.2f%%  +2 %.2f%%  -1 %.2f%%  -2 %.2f%% (of %d clusters)",
		cloud, 100*r.Same, 100*r.PlusOne, 100*r.PlusTwo, 100*r.MinusOne, 100*r.MinusTwo, r.Total)
}

// VPCTransitionStats counts mixed clusters that shifted networking
// type over the campaign (§8.1: 1,024 classic->VPC, 483 VPC->classic).
type VPCTransitionStats struct {
	ClassicToVPC, VPCToClassic int
}

// VPCTransitions compares each cluster's dominant networking type in
// its first and last thirds.
func VPCTransitions(res *cluster.Result) VPCTransitionStats {
	out := VPCTransitionStats{}
	for _, c := range res.Clusters {
		s := seriesOf(c)
		n := s.rounds()
		if n < 3 {
			continue
		}
		// Early is the runs up to the one-third available round, late
		// those from the two-thirds one on.
		early, late := c.Members[:s.starts[n/3+1]], c.Members[s.starts[2*n/3]:]
		earlyIsVPC := 2*vpcMembers(early) > len(early)
		lateIsVPC := 2*vpcMembers(late) > len(late)
		if !earlyIsVPC && lateIsVPC {
			out.ClassicToVPC++
		}
		if earlyIsVPC && !lateIsVPC {
			out.VPCToClassic++
		}
	}
	return out
}

// Format renders the transition counts.
func (v VPCTransitionStats) Format(cloud string) string {
	return fmt.Sprintf("VPC transitions (%s): classic->VPC %d  VPC->classic %d",
		cloud, v.ClassicToVPC, v.VPCToClassic)
}

// Linchpin is an IP aggregating many malicious URLs (§8.2: one EC2 IP
// carried 128 malware URLs pointing at Blackhole exploit pages).
type Linchpin struct {
	IP         ipaddr.Addr
	MaxURLs    int // most flagged URLs seen on the IP in one round
	Domains    int // distinct domains across those URLs
	FirstRound int
	LastRound  int
}

// Linchpins finds IPs whose pages carry at least minURLs flagged URLs
// in a single round. flagged reports whether a URL is malicious (e.g.
// a Safe-Browsing lookup bound to the round's day).
func Linchpins(st *store.Store, minURLs int, flagged func(url string, day int) bool) []Linchpin {
	if minURLs <= 0 {
		minURLs = 20
	}
	byIP := map[ipaddr.Addr]*Linchpin{}
	st.EachRound(func(round *store.Round) bool {
		round.Each(func(rec *store.Record) bool {
			n := 0
			domains := map[string]bool{}
			for _, u := range rec.Links {
				if flagged(u, round.Day) {
					n++
					domains[domainOf(u)] = true
				}
			}
			if n < minURLs {
				return true
			}
			lp := byIP[rec.IP]
			if lp == nil {
				lp = &Linchpin{IP: rec.IP, FirstRound: rec.Round}
				byIP[rec.IP] = lp
			}
			if n > lp.MaxURLs {
				lp.MaxURLs = n
			}
			if len(domains) > lp.Domains {
				lp.Domains = len(domains)
			}
			lp.LastRound = rec.Round
			return true
		})
		return true
	})
	out := make([]Linchpin, 0, len(byIP))
	for _, lp := range byIP {
		out = append(out, *lp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxURLs != out[j].MaxURLs {
			return out[i].MaxURLs > out[j].MaxURLs
		}
		return out[i].IP < out[j].IP
	})
	return out
}

func domainOf(rawURL string) string {
	s := rawURL
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/:"); i >= 0 {
		s = s[:i]
	}
	return s
}

// FormatLinchpins renders the linchpin list.
func FormatLinchpins(cloud string, lps []Linchpin) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Linchpin IPs (%s): %d IPs carrying many malicious URLs\n", cloud, len(lps))
	for i, lp := range lps {
		if i >= 10 {
			break
		}
		fmt.Fprintf(&sb, "  %-15s max %3d URLs across %2d domains (rounds %d..%d)\n",
			lp.IP, lp.MaxURLs, lp.Domains, lp.FirstRound, lp.LastRound)
	}
	return sb.String()
}
