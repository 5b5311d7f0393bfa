package analysis

import (
	"fmt"
	"strings"

	"whowas/internal/ipaddr"
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

// ipStatus is what Churn compares of one IP between rounds. An IP
// absent from a round compares as the zero ipStatus: unresponsive,
// unavailable, unassigned.
type ipStatus struct {
	ip          ipaddr.Addr
	resp, avail bool
	cluster     int64
}

// Churn computes the §8.1 IP-status churn between consecutive rounds.
func Churn(st *store.Store) *ChurnSummary {
	out := &ChurnSummary{}
	// Sliding two-round window: consecutive-round comparison needs the
	// previous round and this one together but never more. A scanned
	// round is valid only while the fold runs on it, so the window holds
	// the compared status of each IP, 16 B a record, in two slices that
	// swap roles each round.
	var prev, cur []ipStatus
	var prevProbed int64
	st.Scan(statusFields, func(r *store.Round) bool {
		cur = cur[:0]
		for _, rec := range r.Records() {
			cur = append(cur, ipStatus{rec.IP, rec.Responsive(), rec.Available(), rec.Cluster})
		}
		if r.Index > 0 {
			probed := r.Probed
			if probed == 0 {
				probed = prevProbed
			}
			out.Points = append(out.Points, churnPoint(prev, cur, r.Index, r.Day, probed))
		}
		prev, cur, prevProbed = cur, prev, r.Probed
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

// churnPoint compares two consecutive rounds' IP-sorted statuses.
func churnPoint(as, bs []ipStatus, round, day int, probed int64) ChurnPoint {
	var respFlips, availFlips, clustFlips, anyFlips float64
	var uniqueResponsive float64
	// One merge walk visits the union of the two rounds' IPs, each
	// once, with its status in either round (zero where absent). IPs in
	// neither are unresponsive both times and cannot have changed.
	for i, j := 0, 0; i < len(as) || j < len(bs); {
		var a, b ipStatus
		switch {
		case j == len(bs) || i < len(as) && as[i].ip < bs[j].ip:
			a, i = as[i], i+1
		case i == len(as) || bs[j].ip < as[i].ip:
			b, j = bs[j], j+1
		default:
			a, b, i, j = as[i], bs[j], i+1, j+1
		}
		if a.resp || b.resp {
			uniqueResponsive++
		}
		changed := false
		if a.resp != b.resp {
			respFlips++
			changed = true
		}
		if a.avail != b.avail {
			availFlips++
			changed = true
		}
		// Cluster change only counts when both rounds carry an
		// assignment and they differ (an appearance/disappearance is
		// already availability churn).
		if a.cluster != 0 && b.cluster != 0 && a.cluster != b.cluster {
			clustFlips++
			changed = true
		}
		if changed {
			anyFlips++
		}
	}

	p := ChurnPoint{Round: round, Day: day}
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
	return p
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
