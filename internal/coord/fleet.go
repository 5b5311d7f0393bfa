// Fleet observability. Each worker owns a metrics Registry and a span
// Tracer, but the operator runs one coordinator, so every heartbeat
// carries the worker's metrics snapshot and every shard submission
// also carries the spans completed since the previous one. The
// coordinator folds them into the fleet view behind /coord/fleet
// (per-worker and fleet-total metrics, probe throughput, slowest
// spans), the worker-labeled /metrics/prom exposition, a bounded
// history of status snapshots, and its merged trace journal.
//
// Throughput is derived, not reported: the coordinator differentiates
// each worker's scanner.probes counter across report arrivals, so a
// worker that stops reporting visibly decays to its last known rate
// with a growing "seen ago" age rather than lying about current speed.
package coord

import (
	"sort"
	"strconv"
	"time"

	"whowas/internal/metrics"
	"whowas/internal/trace"
)

// probesCounter is the registry key throughput derives from.
const probesCounter = "scanner.probes"

// historyMax is how many status records the history ring keeps.
const historyMax = 512

// slowestN bounds each worker row's slowest-span window.
const slowestN = 8

// LeaseState is one worker's slice of the probe budget at a moment in
// time: the leased rate (0 when the campaign is unlimited) and how
// long until the lease lapses unless renewed. A negative ExpiresInMS
// marks a lease past due that the reaper has not reached yet.
type LeaseState struct {
	Rate        float64 `json:"rate"`
	ExpiresInMS int64   `json:"expires_in_ms"`
}

// WorkerView is one worker's row in the fleet dashboard.
type WorkerView struct {
	Worker string `json:"worker"`
	// SeenAgoMS is how long ago the worker last registered or
	// reported.
	SeenAgoMS int64 `json:"seen_ago_ms"`
	// ProbesPerSec is the probe rate over the most recent report
	// interval (0 until two reports have arrived).
	ProbesPerSec float64 `json:"probes_per_sec"`
	Probes       int64   `json:"probes"`
	Responsive   int64   `json:"responsive"`
	Pages        int64   `json:"pages"`
	FetchErrors  int64   `json:"fetch_errors"`
	Retries      int64   `json:"retries"`
	// Lease is the worker's current budget slice, when it holds one.
	Lease *LeaseState `json:"lease,omitempty"`
	// Metrics is the worker's full last-reported snapshot.
	Metrics metrics.Snapshot `json:"metrics"`
	// Slowest is the slowest of the spans the worker has submitted,
	// as merged into the coordinator's journal.
	Slowest []trace.SpanSnapshot `json:"slowest,omitempty"`
}

// Fleet is the /coord/fleet document: the live Status plus per-worker
// rows, fleet totals and the status-history tail.
type Fleet struct {
	Status  Status       `json:"status"`
	Workers []WorkerView `json:"workers"`
	// Fleet is every worker's snapshot merged (MergeSnapshots — exact
	// for counters and histogram counts and sums, count-weighted for
	// quantiles).
	Fleet metrics.Snapshot `json:"fleet"`
	// ProbesPerSec sums the per-worker rates.
	ProbesPerSec float64 `json:"probes_per_sec"`
	// HistoryTotal counts status records ever appended; History holds
	// the retained tail, oldest first.
	HistoryTotal int64    `json:"history_total"`
	History      []Status `json:"history"`
}

// workerState is the coordinator's row for one worker: its lease and
// its last reports.
type workerState struct {
	// expires is the instant the lease lapses unless renewed; zero
	// means the worker holds no lease.
	expires  time.Time
	metrics  metrics.Snapshot
	slowest  []trace.SpanSnapshot
	lastSeen time.Time
	// prev* hold the probes counter at the previous report, for rate
	// differentiation.
	prevProbes int64
	prevTime   time.Time
	rate       float64
}

// fleetState is the coordinator's one worker table — each worker's
// lease and last report — and the status-history ring. The Server
// guards it with its mutex.
type fleetState struct {
	workers map[string]*workerState
	history []Status // ring, at most historyMax records
	next    int      // oldest record once the ring is full
	total   int64    // records ever appended
}

// record files one status record, dropping the oldest at capacity.
func (f *fleetState) record(rec Status) {
	f.total++
	if len(f.history) < historyMax {
		f.history = append(f.history, rec)
		return
	}
	f.history[f.next] = rec
	f.next = (f.next + 1) % historyMax
}

// row returns the worker's row, adding an empty one on first sight.
func (f *fleetState) row(worker string) *workerState {
	ws, ok := f.workers[worker]
	if !ok {
		ws = &workerState{}
		f.workers[worker] = ws
	}
	return ws
}

// leases counts the rows holding a lease, leaving out except's.
func (f *fleetState) leases(except string) int {
	n := 0
	for id, ws := range f.workers {
		if id != except && !ws.expires.IsZero() {
			n++
		}
	}
	return n
}

// observe folds one worker report in at the given instant: its
// metrics snapshot and, from an accepted submission, the spans it
// carried. Reports without a worker identity are ignored.
func (f *fleetState) observe(worker string, snap metrics.Snapshot, spans []trace.SpanSnapshot, now time.Time) {
	if worker == "" {
		return
	}
	ws := f.row(worker)
	probes := snap.Counters[probesCounter]
	if !ws.prevTime.IsZero() {
		if dt := now.Sub(ws.prevTime); dt >= 200*time.Millisecond {
			// Differentiate over the report interval. A restarted worker
			// (counter went backwards) resets the baseline instead of
			// reporting a negative rate.
			if d := probes - ws.prevProbes; d >= 0 {
				ws.rate = float64(d) / dt.Seconds()
			} else {
				ws.rate = 0
			}
			ws.prevProbes, ws.prevTime = probes, now
		}
	} else {
		ws.prevProbes, ws.prevTime = probes, now
	}
	ws.metrics = snap
	ws.lastSeen = now
	if len(spans) > 0 {
		// A fresh slice each time: views handed out earlier keep theirs.
		all := append(append(make([]trace.SpanSnapshot, 0, len(ws.slowest)+len(spans)), ws.slowest...), spans...)
		sort.Slice(all, func(i, j int) bool {
			if all[i].DurNS != all[j].DurNS {
				return all[i].DurNS > all[j].DurNS
			}
			return all[i].ID < all[j].ID
		})
		ws.slowest = all[:min(len(all), slowestN)]
	}
}

// view assembles the fleet document around a status snapshot; each
// row holding a lease shows it as a slice of the given rate.
func (f *fleetState) view(now time.Time, st Status, slice float64) Fleet {
	out := Fleet{Status: st, HistoryTotal: f.total}
	snaps := make([]metrics.Snapshot, 0, len(f.workers))
	for _, id := range f.sortedWorkers() {
		ws := f.workers[id]
		c := ws.metrics.Counters
		var lease *LeaseState
		if !ws.expires.IsZero() {
			lease = &LeaseState{Rate: slice, ExpiresInMS: ws.expires.Sub(now).Milliseconds()}
		}
		out.Workers = append(out.Workers, WorkerView{
			Worker:       id,
			SeenAgoMS:    now.Sub(ws.lastSeen).Milliseconds(),
			ProbesPerSec: ws.rate,
			Probes:       c[probesCounter],
			Responsive:   c["scanner.responsive_ips"],
			Pages:        c["fetcher.pages"],
			FetchErrors:  c["fetcher.transport_errors"],
			Retries:      c["scanner.retries"] + c["fetcher.retries"],
			Lease:        lease,
			Metrics:      ws.metrics,
			Slowest:      ws.slowest,
		})
		out.ProbesPerSec += ws.rate
		snaps = append(snaps, ws.metrics)
	}
	out.Fleet = metrics.MergeSnapshots(snaps...)
	out.History = append(append(make([]Status, 0, len(f.history)), f.history[f.next:]...), f.history[:f.next]...)
	return out
}

func (f *fleetState) sortedWorkers() []string {
	out := make([]string, 0, len(f.workers))
	for id := range f.workers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// restampSpans renumbers a worker's submitted spans into the
// coordinator tracer's ID space and stamps each with the worker,
// round and shard that produced it. IDs map in order onto
// [base, base+len); parents that point inside the batch follow the
// remap, while parents outside it — the worker's stage spans are
// roots, and the worker's ring may have dropped an ancestor — reparent
// onto root (the coordinator's round span), so every merged span
// hangs off the round it ran under. The input is not modified.
func restampSpans(spans []trace.SpanSnapshot, base, root uint64, worker string, round, shard int) []trace.SpanSnapshot {
	idMap := make(map[uint64]uint64, len(spans))
	for i, s := range spans {
		idMap[s.ID] = base + uint64(i)
	}
	out := make([]trace.SpanSnapshot, len(spans))
	for i, s := range spans {
		s.ID = base + uint64(i)
		if p, ok := idMap[s.Parent]; ok && s.Parent != 0 {
			s.Parent = p
		} else {
			s.Parent = root
		}
		attrs := make(map[string]string, len(s.Attrs)+3)
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		attrs["worker"] = worker
		attrs["round"] = strconv.Itoa(round)
		attrs["shard"] = strconv.Itoa(shard)
		s.Attrs = attrs
		out[i] = s
	}
	return out
}
