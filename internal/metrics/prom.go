// Prometheus text exposition for registry snapshots: the ops server's
// /metrics/prom endpoint renders a Snapshot in the format any
// Prometheus-compatible scraper ingests, without taking a client
// dependency. Output is sorted by metric name, so the same snapshot
// always renders byte-identically. WritePromSeries extends the format
// to several label-distinguished snapshots per metric — the
// coordinator exposes every worker's instruments under one scrape with
// a worker label this way.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName maps a registry instrument name ("scanner.probe_latency")
// to a Prometheus metric name ("whowas_scanner_probe_latency").
func promName(ns, name string) string {
	s := strings.NewReplacer(".", "_", "-", "_", " ", "_").Replace(name)
	if ns == "" {
		return s
	}
	return ns + "_" + s
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Label is one Prometheus label pair attached to every sample of a
// labeled snapshot.
type Label struct {
	Key   string
	Value string
}

// LabeledSnapshot pairs a label set with a snapshot. A series with no
// labels renders bare samples, so WriteProm is the single-element
// special case.
type LabeledSnapshot struct {
	Labels []Label
	Snap   Snapshot
}

// labelEscaper escapes label values per the text exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels formats a brace-enclosed label list, or "" when empty.
// Extra labels (the summary quantile) append after the series labels.
func renderLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, labelEscaper.Replace(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format under the given namespace prefix (the ops server uses
// "whowas"). Counters gain the conventional _total suffix, and latency
// histograms — stage timers among them — render as summaries in
// seconds whose _sum and _count are a stage's time spent and passes.
func (s Snapshot) WriteProm(w io.Writer, ns string) error {
	return WritePromSeries(w, ns, []LabeledSnapshot{{Snap: s}})
}

// WritePromSeries renders several label-distinguished snapshots as one
// exposition: each metric name appears once (with a single # TYPE
// line) followed by one sample per series that carries it, in series
// order. This is what Prometheus requires — repeating TYPE lines per
// worker would be a format violation — and what the coordinator's
// /metrics/prom serves: the fleet total first (no labels), then each
// worker's snapshot under a worker label.
func WritePromSeries(w io.Writer, ns string, series []LabeledSnapshot) error {
	// Collect each kind's name set across every series, then emit
	// grouped by name.
	counterNames := map[string]bool{}
	gaugeNames := map[string]bool{}
	histNames := map[string]bool{}
	for _, ls := range series {
		for name := range ls.Snap.Counters {
			counterNames[name] = true
		}
		for name := range ls.Snap.Gauges {
			gaugeNames[name] = true
		}
		for name := range ls.Snap.Histograms {
			histNames[name] = true
		}
	}
	for _, name := range sortedKeys(counterNames) {
		n := promName(ns, name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", n); err != nil {
			return err
		}
		for _, ls := range series {
			v, ok := ls.Snap.Counters[name]
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", n, renderLabels(ls.Labels), v); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(gaugeNames) {
		n := promName(ns, name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", n); err != nil {
			return err
		}
		for _, ls := range series {
			v, ok := ls.Snap.Gauges[name]
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", n, renderLabels(ls.Labels), v); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(histNames) {
		n := promName(ns, name) + "_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", n); err != nil {
			return err
		}
		for _, ls := range series {
			h, ok := ls.Snap.Histograms[name]
			if !ok {
				continue
			}
			secs := func(ms float64) float64 { return ms / 1000 }
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", h.P50MS}, {"0.95", h.P95MS}, {"0.99", h.P99MS}} {
				if _, err := fmt.Fprintf(w, "%s%s %g\n", n,
					renderLabels(ls.Labels, Label{Key: "quantile", Value: q.q}), secs(q.v)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
				n, renderLabels(ls.Labels), secs(h.SumMS), n, renderLabels(ls.Labels), h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
