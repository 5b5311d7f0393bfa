// Fleet-side snapshot arithmetic. Distributed campaigns (internal/
// coord) split one measurement across worker processes, each with its
// own Registry; the coordinator folds the workers' reported Snapshots
// into a single fleet-total view with MergeSnapshots. Merging plain
// snapshots — not live registries — keeps the wire format the thing
// being combined, so a fleet total can be computed from heartbeat
// payloads alone.
package metrics

// MergeSnapshots folds any number of snapshots into one combined
// snapshot. Counters and gauges add; histograms combine exactly for
// count/sum/mean/min/max, while quantiles — which cannot be
// recovered from summaries — are approximated by the count-weighted
// mean of the per-snapshot quantiles. That approximation is faithful
// when workers see similar latency distributions (the homogeneous-
// fleet case) and clearly labeled as fleet-level in the docs; per-
// worker snapshots stay available for exact figures.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		for name, v := range s.Counters {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			if out.Gauges == nil {
				out.Gauges = make(map[string]int64)
			}
			out.Gauges[name] += v
		}
		for name, h := range s.Histograms {
			if h.Count == 0 {
				continue
			}
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			out.Histograms[name] = mergeHist(out.Histograms[name], h)
		}
	}
	return out
}

// mergeHist folds one non-empty histogram summary into an accumulator.
func mergeHist(acc, h HistogramSnapshot) HistogramSnapshot {
	if acc.Count == 0 {
		return h
	}
	total := acc.Count + h.Count
	wa := float64(acc.Count) / float64(total)
	wh := float64(h.Count) / float64(total)
	out := HistogramSnapshot{
		Count:  total,
		SumMS:  acc.SumMS + h.SumMS,
		MeanMS: (acc.SumMS + h.SumMS) / float64(total),
		MinMS:  acc.MinMS,
		MaxMS:  acc.MaxMS,
		P50MS:  acc.P50MS*wa + h.P50MS*wh,
		P95MS:  acc.P95MS*wa + h.P95MS*wh,
		P99MS:  acc.P99MS*wa + h.P99MS*wh,
	}
	if h.MinMS < out.MinMS {
		out.MinMS = h.MinMS
	}
	if h.MaxMS > out.MaxMS {
		out.MaxMS = h.MaxMS
	}
	return out
}
