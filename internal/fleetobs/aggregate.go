// The coordinator-side half: an Aggregator folds worker reports into
// the fleet view behind /coord/fleet and the worker-labeled Prometheus
// exposition. Throughput is derived, not reported — the aggregator
// differentiates each worker's scanner.probes counter across report
// arrivals, so a worker that stops reporting visibly decays to its
// last known rate with a growing "seen ago" age rather than lying
// about current speed.
package fleetobs

import (
	"sort"
	"sync"
	"time"

	"whowas/internal/metrics"
	"whowas/internal/trace"
)

// probesCounter is the registry key throughput derives from.
const probesCounter = "scanner.probes"

// WorkerView is one worker's row in the fleet dashboard.
type WorkerView struct {
	Worker string `json:"worker"`
	// SeenAgoMS is how long ago the worker last reported.
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
	// Slowest is the worker's self-reported slowest-span window.
	Slowest []trace.SpanSnapshot `json:"slowest,omitempty"`
}

// FleetView is the /coord/fleet document body: per-worker rows plus
// fleet totals.
type FleetView struct {
	Workers []WorkerView `json:"workers"`
	// Fleet is every worker's snapshot merged (MergeSnapshots — exact
	// for counters and stages, count-weighted for quantiles).
	Fleet metrics.Snapshot `json:"fleet"`
	// ProbesPerSec sums the per-worker rates.
	ProbesPerSec float64 `json:"probes_per_sec"`
	// HistoryTotal counts status records ever appended; History holds
	// the retained tail, oldest first.
	HistoryTotal int64          `json:"history_total"`
	History      []StatusRecord `json:"history"`
}

// workerState is the aggregator's per-worker bookkeeping.
type workerState struct {
	report   WorkerReport
	lastSeen time.Time
	// prev* hold the probes counter at the previous report, for rate
	// differentiation.
	prevProbes int64
	prevTime   time.Time
	rate       float64
}

// Aggregator folds WorkerReports into the fleet view. Safe for
// concurrent use; its mutex is a leaf (no calls out while held).
type Aggregator struct {
	mu      sync.Mutex
	workers map[string]*workerState
	history *History
}

// historyMax is how many status records the aggregator's history
// ring keeps.
const historyMax = 512

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		workers: make(map[string]*workerState),
		history: NewHistory(historyMax),
	}
}

// History returns the aggregator's status-history ring.
func (a *Aggregator) History() *History {
	if a == nil {
		return nil
	}
	return a.history
}

// Observe folds one worker report in at the given instant. Nil
// reports and reports without a worker identity are ignored.
func (a *Aggregator) Observe(rep *WorkerReport, now time.Time) {
	if a == nil || rep == nil || rep.Worker == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ws, ok := a.workers[rep.Worker]
	if !ok {
		ws = &workerState{}
		a.workers[rep.Worker] = ws
	}
	probes := rep.Metrics.Counters[probesCounter]
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
	ws.report = *rep
	ws.lastSeen = now
}

// Snapshots returns every worker's last-reported snapshot keyed by
// worker, for the labeled Prometheus exposition.
func (a *Aggregator) Snapshots() map[string]metrics.Snapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]metrics.Snapshot, len(a.workers))
	for id, ws := range a.workers {
		out[id] = ws.report.Metrics
	}
	return out
}

// View assembles the fleet view at the given instant. The caller
// supplies the current lease states (the coordinator reads them off
// its ratelimit.Budget) so each worker row can show its slice.
func (a *Aggregator) View(now time.Time, leases []LeaseState) FleetView {
	var view FleetView
	if a == nil {
		return view
	}
	byWorker := make(map[string]*LeaseState, len(leases))
	for i := range leases {
		byWorker[leases[i].Worker] = &leases[i]
	}
	a.mu.Lock()
	snaps := make([]metrics.Snapshot, 0, len(a.workers))
	for _, id := range sortedWorkers(a.workers) {
		ws := a.workers[id]
		c := ws.report.Metrics.Counters
		view.Workers = append(view.Workers, WorkerView{
			Worker:       id,
			SeenAgoMS:    now.Sub(ws.lastSeen).Milliseconds(),
			ProbesPerSec: ws.rate,
			Probes:       c[probesCounter],
			Responsive:   c["scanner.responsive_ips"],
			Pages:        c["fetcher.pages"],
			FetchErrors:  c["fetcher.transport_errors"],
			Retries:      c["scanner.retries"] + c["fetcher.retries"],
			Lease:        byWorker[id],
			Metrics:      ws.report.Metrics,
			Slowest:      ws.report.Slowest,
		})
		view.ProbesPerSec += ws.rate
		snaps = append(snaps, ws.report.Metrics)
	}
	a.mu.Unlock()
	view.Fleet = metrics.MergeSnapshots(snaps...)
	view.History = a.history.Snapshot()
	view.HistoryTotal = a.history.Total()
	return view
}

func sortedWorkers(m map[string]*workerState) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
