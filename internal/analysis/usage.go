// Package analysis implements the measurement studies of §8 over a
// collected WhoWas store: cloud usage dynamics (Tables 3-7, Figures
// 8-14), malicious-activity analysis against blacklist feeds (Figures
// 16/19, Tables 17/18), and the web software ecosystem census
// (§8.3, Table 20). Each function returns a typed result whose Rows or
// Points mirror the corresponding table or figure in the paper, so the
// benchmark harness can print like-for-like output.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"whowas/internal/store"
	"whowas/internal/timeseries"
)

// UsageSummary is Table 7: per-round statistics of responsive IPs,
// available IPs and clusters, with overall growth.
type UsageSummary struct {
	Probed      int64 // IPs probed per round (denominator for percentages)
	Responsive  timeseries.Stats
	Available   timeseries.Stats
	Clusters    timeseries.Stats
	GrowthResp  float64 // relative growth of responsive IPs first->last round
	GrowthAvail float64
	GrowthClust float64
	// Raw per-round series (Figure 8's three panels).
	RespSeries, AvailSeries, ClusterSeries []float64
	Days                                   []int // campaign day per round
}

// roundCounts tallies one round.
func roundCounts(r *store.Round) (responsive, available int) {
	r.Each(func(rec *store.Record) bool {
		if rec.Responsive() {
			responsive++
		}
		if rec.Available() {
			available++
		}
		return true
	})
	return
}

// clusterCountInRound counts distinct final clusters observed in a
// round.
func clusterCountInRound(r *store.Round) int {
	seen := map[int64]bool{}
	r.Each(func(rec *store.Record) bool {
		if rec.Cluster != 0 {
			seen[rec.Cluster] = true
		}
		return true
	})
	return len(seen)
}

// Usage computes Table 7 and the Figure 8 series. Clustering must have
// run for the cluster columns to be populated.
func Usage(st *store.Store) *UsageSummary {
	out := &UsageSummary{}
	st.Scan(statusFields, func(r *store.Round) bool {
		resp, avail := roundCounts(r)
		out.RespSeries = append(out.RespSeries, float64(resp))
		out.AvailSeries = append(out.AvailSeries, float64(avail))
		out.ClusterSeries = append(out.ClusterSeries, float64(clusterCountInRound(r)))
		out.Days = append(out.Days, r.Day)
		if r.Probed > out.Probed {
			out.Probed = r.Probed
		}
		return true
	})
	out.Responsive = timeseries.Summarize(out.RespSeries)
	out.Available = timeseries.Summarize(out.AvailSeries)
	out.Clusters = timeseries.Summarize(out.ClusterSeries)
	_, out.GrowthResp = timeseries.Growth(out.RespSeries)
	_, out.GrowthAvail = timeseries.Growth(out.AvailSeries)
	_, out.GrowthClust = timeseries.Growth(out.ClusterSeries)
	return out
}

// Format renders the Table 7 block.
func (u *UsageSummary) Format(cloud string) string {
	var sb strings.Builder
	pct := func(v float64) string {
		if u.Probed == 0 {
			return "-"
		}
		return fmt.Sprintf("%5.1f%%", 100*v/float64(u.Probed))
	}
	fmt.Fprintf(&sb, "Table 7 (%s): usage of the address space (probed IPs per round: %d)\n", cloud, u.Probed)
	fmt.Fprintf(&sb, "%-16s %12s %9s %12s %9s %10s\n", "", "#Responsive", "(%)", "#Available", "(%)", "#Clusters")
	row := func(name string, r, a, c float64) {
		fmt.Fprintf(&sb, "%-16s %12.0f %9s %12.0f %9s %10.0f\n", name, r, pct(r), a, pct(a), c)
	}
	row("Minimum", u.Responsive.Min, u.Available.Min, u.Clusters.Min)
	row("Maximum", u.Responsive.Max, u.Available.Max, u.Clusters.Max)
	row("Average", u.Responsive.Mean, u.Available.Mean, u.Clusters.Mean)
	row("Std. dev.", u.Responsive.Std, u.Available.Std, u.Clusters.Std)
	fmt.Fprintf(&sb, "%-16s %11.1f%% %9s %11.1f%% %9s %9.1f%%\n", "Overall growth",
		100*u.GrowthResp, "", 100*u.GrowthAvail, "", 100*u.GrowthClust)
	return sb.String()
}

// PortMix is Table 3: the open-port combinations of responsive IPs,
// averaged across rounds, as percentages of responsive IPs.
type PortMix struct {
	SSHOnly, HTTPOnly, HTTPSOnly, Both float64
}

// Ports computes Table 3.
func Ports(st *store.Store) PortMix {
	var mix PortMix
	rounds := 0
	st.Scan(store.FieldPorts, func(r *store.Round) bool {
		rounds++
		var ssh, h, hs, both, total float64
		r.Each(func(rec *store.Record) bool {
			if !rec.Responsive() {
				return true
			}
			total++
			hasH := rec.OpenPorts&store.PortHTTP != 0
			hasS := rec.OpenPorts&store.PortHTTPS != 0
			switch {
			case hasH && hasS:
				both++
			case hasH:
				h++
			case hasS:
				hs++
			default:
				ssh++
			}
			return true
		})
		if total == 0 {
			return true
		}
		mix.SSHOnly += ssh / total
		mix.HTTPOnly += h / total
		mix.HTTPSOnly += hs / total
		mix.Both += both / total
		return true
	})
	if rounds == 0 {
		return mix
	}
	n := float64(rounds)
	mix.SSHOnly /= n
	mix.HTTPOnly /= n
	mix.HTTPSOnly /= n
	mix.Both /= n
	return mix
}

// Format renders the Table 3 row.
func (p PortMix) Format(cloud string) string {
	return fmt.Sprintf("Table 3 (%s): %% responsive IPs by open ports: 22-only %.1f  80-only %.1f  443-only %.1f  80&443 %.1f",
		cloud, 100*p.SSHOnly, 100*p.HTTPOnly, 100*p.HTTPSOnly, 100*p.Both)
}

// StatusMix is Table 4: HTTP status classes among IPs with an HTTP
// response, averaged across rounds.
type StatusMix struct {
	OK200, C4xx, C5xx, Other float64
}

// Statuses computes Table 4.
func Statuses(st *store.Store) StatusMix {
	var mix StatusMix
	rounds := 0
	st.Scan(store.FieldStatus, func(r *store.Round) bool {
		rounds++
		var ok, c4, c5, other, total float64
		r.Each(func(rec *store.Record) bool {
			if rec.HTTPStatus == 0 {
				return true
			}
			total++
			switch {
			case rec.HTTPStatus == 200:
				ok++
			case rec.HTTPStatus >= 400 && rec.HTTPStatus < 500:
				c4++
			case rec.HTTPStatus >= 500:
				c5++
			default:
				other++
			}
			return true
		})
		if total == 0 {
			return true
		}
		mix.OK200 += ok / total
		mix.C4xx += c4 / total
		mix.C5xx += c5 / total
		mix.Other += other / total
		return true
	})
	if rounds == 0 {
		return mix
	}
	n := float64(rounds)
	mix.OK200 /= n
	mix.C4xx /= n
	mix.C5xx /= n
	mix.Other /= n
	return mix
}

// Format renders the Table 4 row.
func (s StatusMix) Format(cloud string) string {
	return fmt.Sprintf("Table 4 (%s): %% responding IPs by status: 200 %.1f  4xx %.1f  5xx %.1f  other %.2f",
		cloud, 100*s.OK200, 100*s.C4xx, 100*s.C5xx, 100*s.Other)
}

// ContentTypeShare is one row of Table 5.
type ContentTypeShare struct {
	Type  string
	Share float64 // fraction of fetched pages
}

// ContentTypes computes Table 5's top-N content types over all
// collected pages.
func ContentTypes(st *store.Store, topN int) []ContentTypeShare {
	counts := map[string]int{}
	total := 0
	st.Scan(store.FieldStatus|store.FieldContentType, func(r *store.Round) bool {
		r.Each(func(rec *store.Record) bool {
			if rec.HTTPStatus != 0 && rec.ContentType != "" {
				counts[rec.ContentType]++
				total++
			}
			return true
		})
		return true
	})
	out := make([]ContentTypeShare, 0, len(counts))
	for t, n := range counts {
		out = append(out, ContentTypeShare{Type: t, Share: float64(n) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Type < out[j].Type
	})
	if topN > 0 && len(out) > topN {
		rest := 0.0
		for _, c := range out[topN:] {
			rest += c.Share
		}
		out = append(out[:topN], ContentTypeShare{Type: "other", Share: rest})
	}
	return out
}

// FormatContentTypes renders Table 5.
func FormatContentTypes(cloud string, shares []ContentTypeShare) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 5 (%s): top content types\n", cloud)
	for _, c := range shares {
		fmt.Fprintf(&sb, "  %-28s %5.1f%%\n", c.Type, 100*c.Share)
	}
	return sb.String()
}
