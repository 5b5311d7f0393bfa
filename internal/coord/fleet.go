// The coordinator's state — the ledger, which only apply changes — and
// the fleet's view of it. Each worker owns a metrics Registry and a span
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

	"whowas/internal/core"
	"whowas/internal/metrics"
	"whowas/internal/trace"
)

// probesCounter is the registry key throughput derives from.
const probesCounter = "scanner.probes"

// historyMax is how many status records the history ring keeps.
const historyMax = 512

// slowestN bounds each worker row's slowest-span window.
const slowestN = 8

// evKind names an event the ledger applies.
type evKind int

const (
	evRegister     evKind = iota // a worker asks for a lease
	evHeartbeat                  // a worker renews its lease and reports
	evNext                       // a worker renews its lease and asks for a shard
	evSubmit                     // a worker hands back a shard, merged when accepted
	evReap                       // a tick: nothing beyond the reap every event starts with
	evRoundBegin                 // the round opens with every shard pending
	evRoundClose                 // the round stops taking submissions
	evRoundEnd                   // the closed round is finalized
	evCampaignDone               // the last round has ended
)

// event is one input to the ledger; each kind reads only its fields.
// round, day and root (the root span's ID) describe a round_begin's
// round; round and shard name a submission's shard, and base is the
// first tracer ID reserved for its spans.
type event struct {
	kind              evKind
	worker            string
	metrics           metrics.Snapshot
	round, shard, day int
	root, base        uint64
	result            *core.ShardResult
	spans             []trace.SpanSnapshot
	degraded          bool // a round_end's finalized verdict
}

// effects is what one applied event asks of its caller: ok is the
// verdict (a register's lease granted, a heartbeat's or next's lease
// live, a submission accepted); spans are an accepted submission's,
// restamped under the round's root span for the journal; results are
// a round_close's; expired and requeued count the leases the event
// reaped and the shards it put back in the queue; wake says a waiter's
// condition may have changed. mergeErr is the store's refusal of a
// submission, which the ledger then never sees.
type effects struct {
	ok                bool
	assign            Assignment
	spans             []trace.SpanSnapshot
	results           []*core.ShardResult
	complete          bool // every shard of the open round is done
	held              int  // live leases
	expired, requeued int64
	wake              bool
	mergeErr          error
}

// roundState is one in-flight round's shard assignment.
type roundState struct {
	idx, day int
	root     uint64   // the round's root span, parent of accepted worker spans
	pending  []int    // unassigned shard indexes, FIFO
	owner    []string // assigned shard -> worker ID ("" = unassigned)
	done     []bool
	results  []*core.ShardResult
	nDone    int
	degraded bool
}

// ledger is the coordinator's whole state — the open round's shard
// assignment, the rounds done, the one worker table with each lease,
// and the status history — and apply is the only code that changes
// it. apply is pure: it does no I/O, takes no lock, reads no clock and
// touches no metric, so the coordinator's decisions can be driven by a
// seeded event sequence with no server at all. Server.apply holds the
// mutex around it and acts on the effects it returns.
type ledger struct {
	// The campaign's constants: its settings (defaults applied), the
	// cloud, the round schedule, the region names of each shard, and
	// each lease's slice of the global §7 budget.
	cfg       Config
	cloudName string
	days      []int
	shards    [][]string
	slice     float64

	round        *roundState // the open round, nil between rounds
	last         *roundState // the last closed round
	roundsDone   int
	campaignDone bool
	// expired and requeued count every lease reaped and every shard
	// re-queued, campaign-wide.
	expired, requeued int64

	// workers is the one worker table: each row's lease and reports.
	workers map[string]*workerState
	history []Status // ring, at most historyMax records
	next    int      // oldest record once the ring is full
	total   int64    // records ever appended
}

// apply changes the ledger by one event at instant now and returns
// what the caller must do about it. It reaps first — every lease past
// its expiry at now dies here and nowhere else, exactly once — then
// applies the event, then files the event's status record.
func (l *ledger) apply(ev event, now time.Time) effects {
	var fx effects
	expired, requeued := l.expired, l.requeued
	l.reap(now)
	rec, r := "", l.round
	switch ev.kind {
	case evRegister:
		// A re-registering worker's own lease is replaced, not counted.
		if fx.ok = l.leases(ev.worker) < l.cfg.MaxWorkers; fx.ok {
			ws := l.row(ev.worker)
			ws.expires, ws.lastSeen = now.Add(l.cfg.LeaseTTL), now
			// A re-registering worker lost its session state; its old
			// assignments go back in the queue.
			l.requeue(ev.worker)
			rec, fx.wake = "register", true
		}
	case evHeartbeat:
		if fx.ok = l.renew(ev.worker, now); fx.ok {
			l.observe(ev.worker, ev.metrics, nil, now)
		}
	case evNext:
		switch fx.ok = l.renew(ev.worker, now); {
		case !fx.ok:
		case r != nil && len(r.pending) > 0:
			shard := r.pending[0]
			r.pending = r.pending[1:]
			r.owner[shard] = ev.worker
			fx.assign = Assignment{State: StateRun, Round: r.idx, Day: r.day, Shard: shard, Regions: l.shards[shard]}
		case l.campaignDone && r == nil:
			// The released lease may be the last one DrainWorkers awaits.
			fx.assign, fx.wake = Assignment{State: StateDone}, true
			l.workers[ev.worker].expires = time.Time{}
		default:
			fx.assign = Assignment{State: StateWait, RetryMS: defaultRetryMS}
		}
	case evSubmit:
		if fx.ok = l.accepts(ev, now); fx.ok {
			r.done[ev.shard], r.results[ev.shard] = true, ev.result
			r.nDone++
			r.degraded = r.degraded || ev.result.Degraded
			fx.spans = restampSpans(ev.spans, ev.base, r.root, ev.worker, ev.round, ev.shard)
			rec, fx.wake = "submit", true
		}
		l.observe(ev.worker, ev.metrics, fx.spans, now)
	case evRoundBegin:
		n := len(l.shards)
		r = &roundState{idx: ev.round, day: ev.day, root: ev.root, pending: make([]int, n),
			owner: make([]string, n), done: make([]bool, n), results: make([]*core.ShardResult, n)}
		for i := range r.pending {
			r.pending[i] = i
		}
		l.round, rec = r, "round_begin"
	case evRoundClose:
		// Closed, the round takes no submission: its results are final.
		// They hold every record of the round, so the ledger lets go.
		fx.results, r.results = r.results, nil
		l.round, l.last = nil, r
	case evRoundEnd:
		l.roundsDone++
		r, rec = l.last, "round_end"
		r.degraded = ev.degraded
	case evCampaignDone:
		l.campaignDone, rec, fx.wake = true, "campaign_done", true
	}
	if rec != "" {
		l.record(l.status(rec, ev.worker, r, now))
	}
	fx.expired, fx.requeued = l.expired-expired, l.requeued-requeued
	fx.held = l.leases("")
	fx.complete = l.round != nil && l.round.nDone == len(l.shards)
	return fx
}

// reap clears every lease past its expiry at now, re-queues each dead
// worker's unfinished shards and records the deaths, in worker order.
func (l *ledger) reap(now time.Time) {
	var dead []string
	for id, ws := range l.workers {
		if !ws.expires.IsZero() && now.After(ws.expires) {
			ws.expires = time.Time{}
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		l.expired++
		l.requeue(id)
		l.record(l.status("lease_expired", id, l.round, now))
	}
}

// renew extends worker's lease to a TTL past now, reporting false when
// it holds none: never registered, released, or reaped.
func (l *ledger) renew(worker string, now time.Time) bool {
	ws := l.workers[worker]
	if ws == nil || ws.expires.IsZero() {
		return false
	}
	ws.expires = now.Add(l.cfg.LeaseTTL)
	return true
}

// requeue returns a worker's assigned-but-unfinished shards to the
// open round's pending queue.
func (l *ledger) requeue(worker string) {
	if r := l.round; r != nil {
		for shard, owner := range r.owner {
			if owner == worker && !r.done[shard] {
				r.owner[shard] = ""
				r.pending = append(r.pending, shard)
				l.requeued++
			}
		}
	}
}

// accepts reports whether a submission is the open round's shard, not
// yet done, from the worker that owns it under a lease live at now —
// the verdict apply reaches, so the store merge can run before it.
func (l *ledger) accepts(ev event, now time.Time) bool {
	r, ws := l.round, l.workers[ev.worker]
	return r != nil && ws != nil && !ws.expires.IsZero() && !now.After(ws.expires) &&
		ev.round == r.idx && ev.shard >= 0 && ev.shard < len(r.done) &&
		!r.done[ev.shard] && r.owner[ev.shard] == ev.worker
}

// status builds a status snapshot at now with round r (nil when none
// is open) as the current round.
func (l *ledger) status(event, worker string, r *roundState, now time.Time) Status {
	st := Status{
		TimeMS:           now.UnixMilli(),
		Event:            event,
		Worker:           worker,
		Cloud:            l.cloudName,
		RoundsTotal:      len(l.days),
		RoundsCompleted:  l.roundsDone,
		Done:             l.campaignDone,
		Round:            -1,
		LeasesExpired:    l.expired,
		ShardsReassigned: l.requeued,
		Rate:             l.cfg.Rate,
		LeasedRate:       float64(l.leases("")) * l.slice,
	}
	if r != nil {
		st.Round, st.Day, st.Degraded = r.idx, r.day, r.degraded
		st.ShardsPending, st.ShardsDone = len(r.pending), r.nDone
		st.ShardsAssigned = len(r.done) - len(r.pending) - r.nDone
	}
	if st.Rate > 0 {
		st.QuotaUtilization = st.LeasedRate / st.Rate
	}
	return st
}

// record files one status record, dropping the oldest at capacity.
func (l *ledger) record(rec Status) {
	l.total++
	if len(l.history) < historyMax {
		l.history = append(l.history, rec)
		return
	}
	l.history[l.next] = rec
	l.next = (l.next + 1) % historyMax
}

// row returns the worker's row, adding an empty one on first sight.
func (l *ledger) row(worker string) *workerState {
	ws, ok := l.workers[worker]
	if !ok {
		ws = &workerState{}
		l.workers[worker] = ws
	}
	return ws
}

// leases counts the rows holding a lease, leaving out except's.
func (l *ledger) leases(except string) int {
	n := 0
	for id, ws := range l.workers {
		if id != except && !ws.expires.IsZero() {
			n++
		}
	}
	return n
}

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

// observe folds one worker report in at the given instant: its
// metrics snapshot and, from an accepted submission, the spans it
// carried. Reports without a worker identity are ignored.
func (l *ledger) observe(worker string, snap metrics.Snapshot, spans []trace.SpanSnapshot, now time.Time) {
	if worker == "" {
		return
	}
	ws := l.row(worker)
	probes := snap.Counters[probesCounter]
	if ws.prevTime.IsZero() {
		ws.prevProbes, ws.prevTime = probes, now
	} else if dt := now.Sub(ws.prevTime); dt >= 200*time.Millisecond {
		// Differentiate over the report interval. A restarted worker
		// (counter went backwards) resets the baseline instead of
		// reporting a negative rate.
		ws.rate = max(float64(probes-ws.prevProbes), 0) / dt.Seconds()
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
func (l *ledger) view(now time.Time, st Status, slice float64) Fleet {
	out := Fleet{Status: st, HistoryTotal: l.total}
	snaps := make([]metrics.Snapshot, 0, len(l.workers))
	for _, id := range l.sortedWorkers() {
		ws := l.workers[id]
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
	out.History = append(append(make([]Status, 0, len(l.history)), l.history[l.next:]...), l.history[:l.next]...)
	return out
}

func (l *ledger) sortedWorkers() []string {
	out := make([]string, 0, len(l.workers))
	for id := range l.workers {
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
