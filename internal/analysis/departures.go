package analysis

import (
	"fmt"
	"sort"
	"strings"

	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// DepartureEvent describes one round's permanent departures: clusters
// that were available in the previous round, become unavailable at
// this round, and never return (§8.1's Friday/Saturday dips — the
// paper found 3,198 / 2,767 / 1,449 / 983 / 1,327 such clusters on the
// EC2 dip dates, with 15,295 IPs involved).
type DepartureEvent struct {
	Round    int
	Day      int
	Clusters int
	IPs      int
}

// Departures finds, for every round, the clusters that permanently
// leave at that round, and returns the rounds with the largest
// departure batches (all rounds when topN <= 0).
func Departures(st *store.Store, res *cluster.Result, topN int) []DepartureEvent {
	metas := st.Metas()
	nRounds := len(metas)
	if nRounds < 2 {
		return nil
	}
	events := make([]DepartureEvent, nRounds)
	for i := range events {
		events[i] = DepartureEvent{Round: i, Day: metas[i].Day}
	}
	for _, c := range res.Clusters {
		rounds := c.Rounds()
		if len(rounds) == 0 {
			continue
		}
		last := rounds[len(rounds)-1]
		if last >= nRounds-1 {
			continue // still alive at the end: not a departure
		}
		departAt := last + 1
		events[departAt].Clusters++
		ips := map[ipaddr.Addr]bool{}
		for _, rec := range c.Records {
			ips[rec.IP] = true
		}
		events[departAt].IPs += len(ips)
	}
	out := events[1:]
	sort.Slice(out, func(i, j int) bool {
		if out[i].Clusters != out[j].Clusters {
			return out[i].Clusters > out[j].Clusters
		}
		if out[i].IPs != out[j].IPs {
			return out[i].IPs > out[j].IPs
		}
		return out[i].Round < out[j].Round
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// FormatDepartures renders the departure table.
func FormatDepartures(cloud string, events []DepartureEvent) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Permanent departures (%s): largest never-return batches by round\n", cloud)
	fmt.Fprintf(&sb, "  %-6s %-5s %9s %7s\n", "round", "day", "clusters", "IPs")
	for _, e := range events {
		fmt.Fprintf(&sb, "  %-6d %-5d %9d %7d\n", e.Round, e.Day, e.Clusters, e.IPs)
	}
	return sb.String()
}
