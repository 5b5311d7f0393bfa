package analysis

import (
	"fmt"
	"sort"
	"strings"

	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// VPCSeries is Figure 13: responsive and available IP counts per
// round, split by the cartography's VPC/classic labels.
type VPCSeries struct {
	Rounds            []int
	ClassicResponsive []int
	ClassicAvailable  []int
	VPCResponsive     []int
	VPCAvailable      []int
}

// VPCUsage computes Figure 13 (requires cartography labels on the
// records).
func VPCUsage(st *store.Store) VPCSeries {
	var out VPCSeries
	st.Scan(store.FieldPorts|store.FieldStatus|store.FieldFlags, func(r *store.Round) bool {
		var cr, ca, vr, va int
		r.Each(func(rec *store.Record) bool {
			if rec.VPC {
				if rec.Responsive() {
					vr++
				}
				if rec.Available() {
					va++
				}
			} else {
				if rec.Responsive() {
					cr++
				}
				if rec.Available() {
					ca++
				}
			}
			return true
		})
		out.Rounds = append(out.Rounds, r.Index)
		out.ClassicResponsive = append(out.ClassicResponsive, cr)
		out.ClassicAvailable = append(out.ClassicAvailable, ca)
		out.VPCResponsive = append(out.VPCResponsive, vr)
		out.VPCAvailable = append(out.VPCAvailable, va)
		return true
	})
	return out
}

// Format renders Figure 13.
func (v VPCSeries) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 13 (%s): responsive/available IPs by networking type per round\n", cloud)
	fmt.Fprintf(&sb, "  %-6s %12s %12s %12s %12s\n", "round", "classic-resp", "classic-avail", "vpc-resp", "vpc-avail")
	for i, r := range v.Rounds {
		fmt.Fprintf(&sb, "  %-6d %12d %12d %12d %12d\n", r,
			v.ClassicResponsive[i], v.ClassicAvailable[i], v.VPCResponsive[i], v.VPCAvailable[i])
	}
	return sb.String()
}

// VPCClusterSeries is Figure 14: per-round counts of clusters by
// networking class, plus the overall class totals.
type VPCClusterSeries struct {
	Rounds      []int
	ClassicOnly []int
	VPCOnly     []int
	Mixed       []int
	// Overall classification of every cluster across the campaign.
	TotalClassicOnly, TotalVPCOnly, TotalMixed int
}

// VPCClusters computes Figure 14.
func VPCClusters(st *store.Store, res *cluster.Result) VPCClusterSeries {
	nRounds := st.NumRounds()
	out := VPCClusterSeries{
		Rounds:      make([]int, nRounds),
		ClassicOnly: make([]int, nRounds),
		VPCOnly:     make([]int, nRounds),
		Mixed:       make([]int, nRounds),
	}
	for r := range out.Rounds {
		out.Rounds[r] = r
	}
	// Each run (one round's members) and each whole cluster uses VPC
	// IPs, classic IPs, or both.
	classify := func(ms []cluster.Member, classic, vpcOnly, mixed *int) {
		switch vpc := vpcMembers(ms); {
		case vpc == 0:
			*classic++
		case vpc == len(ms):
			*vpcOnly++
		default:
			*mixed++
		}
	}
	for _, c := range res.Clusters {
		s := seriesOf(c)
		for i := 0; i < s.rounds(); i++ {
			run := s.run(i)
			r := run[0].Round
			classify(run, &out.ClassicOnly[r], &out.VPCOnly[r], &out.Mixed[r])
		}
		classify(c.Members, &out.TotalClassicOnly, &out.TotalVPCOnly, &out.TotalMixed)
	}
	return out
}

// Format renders Figure 14.
func (v VPCClusterSeries) Format(cloud string) string {
	var sb strings.Builder
	total := v.TotalClassicOnly + v.TotalVPCOnly + v.TotalMixed
	fmt.Fprintf(&sb, "Figure 14 (%s): clusters by networking type per round\n", cloud)
	fmt.Fprintf(&sb, "  overall: classic-only %d (%.1f%%)  vpc-only %d (%.1f%%)  mixed %d (%.1f%%)\n",
		v.TotalClassicOnly, pct(v.TotalClassicOnly, total),
		v.TotalVPCOnly, pct(v.TotalVPCOnly, total),
		v.TotalMixed, pct(v.TotalMixed, total))
	fmt.Fprintf(&sb, "  %-6s %13s %9s %7s\n", "round", "classic-only", "vpc-only", "mixed")
	for i, r := range v.Rounds {
		fmt.Fprintf(&sb, "  %-6d %13d %9d %7d\n", r, v.ClassicOnly[i], v.VPCOnly[i], v.Mixed[i])
	}
	return sb.String()
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// VPCPrefixRow is one row of Table 2.
type VPCPrefixRow struct {
	Region      string
	VPCPrefixes int
	PctOfRegion float64 // VPC IPs as % of the region's IPs
}

// VPCPrefixTable builds Table 2 from a measured set of VPC /22
// prefixes. prefixRegion maps a /22 network address to its region;
// regionSizes gives each region's total /22 count.
func VPCPrefixTable(vpcPrefixes map[ipaddr.Addr]bool, prefixRegion func(ipaddr.Addr) string, regionSizes map[string]int) []VPCPrefixRow {
	counts := map[string]int{}
	for p, isVPC := range vpcPrefixes {
		if isVPC {
			counts[prefixRegion(p)]++
		}
	}
	var rows []VPCPrefixRow
	for region, n := range counts {
		total := regionSizes[region]
		row := VPCPrefixRow{Region: region, VPCPrefixes: n}
		if total > 0 {
			row.PctOfRegion = 100 * float64(n) / float64(total)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].VPCPrefixes != rows[j].VPCPrefixes {
			return rows[i].VPCPrefixes > rows[j].VPCPrefixes
		}
		return rows[i].Region < rows[j].Region
	})
	return rows
}

// FormatVPCPrefixes renders Table 2.
func FormatVPCPrefixes(rows []VPCPrefixRow) string {
	var sb strings.Builder
	sb.WriteString("Table 2: VPC /22 prefixes by region\n")
	fmt.Fprintf(&sb, "  %-16s %12s %16s\n", "Region", "VPC prefixes", "% of region IPs")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-16s %12d %15.1f%%\n", r.Region, r.VPCPrefixes, r.PctOfRegion)
	}
	return sb.String()
}
