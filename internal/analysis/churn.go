package analysis

import (
	"fmt"
	"strings"

	"whowas/internal/store"
)

// ChurnPoint is one round-to-round churn measurement (Figure 9).
type ChurnPoint struct {
	Round int // the later round T (compared against T-1)
	Day   int
	// Fractions of all probed IPs whose status changed (the paper's
	// primary denominator).
	Responsiveness float64 // responsive <-> unresponsive flips
	Availability   float64 // available <-> unavailable flips
	ClusterChange  float64 // IPs whose cluster assignment changed
	Overall        float64 // any of the above
	// Fractions relative to the unique IPs responsive in either round
	// (the paper's secondary denominator: 11.9% EC2 / 12.2% Azure).
	RelResponsiveness float64
	RelAvailability   float64
	RelClusterChange  float64
	RelOverall        float64
}

// ChurnSummary aggregates the per-round series.
type ChurnSummary struct {
	Points []ChurnPoint
	// Averages across rounds.
	AvgResponsiveness, AvgAvailability, AvgClusterChange, AvgOverall             float64
	AvgRelResponsiveness, AvgRelAvailability, AvgRelClusterChange, AvgRelOverall float64
}

// statusFields are what the IP-status analyses (Churn, Usage) read:
// responsiveness, availability and the cluster label.
const statusFields = store.FieldPorts | store.FieldStatus | store.FieldCluster

// Churn computes the §8.1 IP-status churn between consecutive rounds.
func Churn(st *store.Store) *ChurnSummary {
	out := &ChurnSummary{}
	// Sliding two-round window: consecutive-round comparison needs prev
	// and cur together but never more, which is exactly how long a
	// scanned round stays valid.
	var prev *store.Round
	st.Scan(statusFields, func(cur *store.Round) bool {
		if prev == nil {
			prev = cur
			return true
		}
		probed := cur.Probed
		if probed == 0 {
			probed = prev.Probed
		}
		var respFlips, availFlips, clustFlips, anyFlips float64
		var uniqueResponsive float64
		// Both rounds are IP-sorted: one merge walk visits the union of
		// their IPs, each once, with its record in either round (nil
		// where absent). IPs in neither are unresponsive both times and
		// cannot have changed.
		as, bs := prev.Records(), cur.Records()
		for i, j := 0, 0; i < len(as) || j < len(bs); {
			var a, b *store.Record
			switch {
			case j == len(bs) || i < len(as) && as[i].IP < bs[j].IP:
				a, i = as[i], i+1
			case i == len(as) || bs[j].IP < as[i].IP:
				b, j = bs[j], j+1
			default:
				a, b, i, j = as[i], bs[j], i+1, j+1
			}
			respA, respB := a != nil && a.Responsive(), b != nil && b.Responsive()
			availA, availB := a != nil && a.Available(), b != nil && b.Available()
			var clustA, clustB int64
			if a != nil {
				clustA = a.Cluster
			}
			if b != nil {
				clustB = b.Cluster
			}
			if respA || respB {
				uniqueResponsive++
			}
			changed := false
			if respA != respB {
				respFlips++
				changed = true
			}
			if availA != availB {
				availFlips++
				changed = true
			}
			// Cluster change only counts when both rounds carry an
			// assignment and they differ (an appearance/disappearance
			// is already availability churn).
			if clustA != 0 && clustB != 0 && clustA != clustB {
				clustFlips++
				changed = true
			}
			if changed {
				anyFlips++
			}
		}

		p := ChurnPoint{Round: cur.Index, Day: cur.Day}
		if probed > 0 {
			d := float64(probed)
			p.Responsiveness = respFlips / d
			p.Availability = availFlips / d
			p.ClusterChange = clustFlips / d
			p.Overall = anyFlips / d
		}
		if uniqueResponsive > 0 {
			p.RelResponsiveness = respFlips / uniqueResponsive
			p.RelAvailability = availFlips / uniqueResponsive
			p.RelClusterChange = clustFlips / uniqueResponsive
			p.RelOverall = anyFlips / uniqueResponsive
		}
		out.Points = append(out.Points, p)
		prev = cur
		return true
	})
	n := float64(len(out.Points))
	if n == 0 {
		return out
	}
	for _, p := range out.Points {
		out.AvgResponsiveness += p.Responsiveness / n
		out.AvgAvailability += p.Availability / n
		out.AvgClusterChange += p.ClusterChange / n
		out.AvgOverall += p.Overall / n
		out.AvgRelResponsiveness += p.RelResponsiveness / n
		out.AvgRelAvailability += p.RelAvailability / n
		out.AvgRelClusterChange += p.RelClusterChange / n
		out.AvgRelOverall += p.RelOverall / n
	}
	return out
}

// Format renders the Figure 9 summary and series.
func (c *ChurnSummary) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 (%s): per-round status churn, %% of all probed IPs\n", cloud)
	fmt.Fprintf(&sb, "  averages: responsiveness %.1f%%  availability %.1f%%  cluster %.2f%%  overall %.1f%%\n",
		100*c.AvgResponsiveness, 100*c.AvgAvailability, 100*c.AvgClusterChange, 100*c.AvgOverall)
	fmt.Fprintf(&sb, "  relative to responsive IPs: responsiveness %.1f%%  availability %.1f%%  cluster %.1f%%  overall %.1f%%\n",
		100*c.AvgRelResponsiveness, 100*c.AvgRelAvailability, 100*c.AvgRelClusterChange, 100*c.AvgRelOverall)
	fmt.Fprintf(&sb, "  %-6s %-5s %12s %12s\n", "round", "day", "resp-churn%", "avail-churn%")
	for _, p := range c.Points {
		fmt.Fprintf(&sb, "  %-6d %-5d %12.2f %12.2f\n", p.Round, p.Day, 100*p.Responsiveness, 100*p.Availability)
	}
	return sb.String()
}
