// Package coord is the distributed campaign: a coordinator that owns
// the round schedule, the region-shard assignment, the one store, and
// the global §7 probe-rate budget, plus the worker that leases a slice
// of that budget and runs assigned shards through core.ShardRunner
// against a shared whowas-cloudd.
//
// The coordinator keeps one table of workers. Each row holds the
// worker's lease — an expiry instant on the coordinator's clock, one
// equal slice Rate/MaxWorkers of the budget — beside its last reports,
// all under one mutex; the budget is the count of live leases times
// the slice.
//
// The protocol is JSON over HTTP on the shared internal/httpd stack,
// beside its observability surface and internal/ops' routes; a refusal
// is an httpd.ErrorDoc carrying the reason:
//
//	POST /coord/register   RegisterRequest  → RegisterReply (409 while MaxWorkers others hold leases)
//	POST /coord/heartbeat  HeartbeatRequest → HeartbeatReply (410 when the lease is gone)
//	POST /coord/next       NextRequest      → Assignment     (410 when the lease is gone)
//	POST /coord/submit     SubmitRequest    → SubmitReply
//	GET  /coord/fleet                       → Fleet
//
// Liveness is the lease: a worker that stops renewing (heartbeat or
// /next, both renew) expires after the TTL, its slice returns to the
// global budget, and its unfinished shards are re-queued for the
// surviving workers — a killed worker degrades the fleet exactly like
// a blackout scenario degrades the network, and the round completes
// under RoundTimeout instead of hanging. The coordinator merges shard
// submissions through the same store path EndRound always used, so
// the round digest is byte-identical for any worker count.
package coord

import (
	"whowas/internal/core"
	"whowas/internal/faults"
	"whowas/internal/metrics"
	"whowas/internal/trace"
)

// RegisterRequest announces a worker and asks for a budget lease.
// Re-registering under the same worker ID replaces the old lease and
// re-queues any shards the previous session left unfinished.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// RegisterReply grants a lease and carries everything the worker
// needs to build its shard runner: where the shared cloud daemon
// lives and the campaign knobs that must match across the fleet for
// the digest to stay byte-identical.
type RegisterReply struct {
	// Rate is the worker's leased slice of the global §7 probe budget,
	// in probes per second; 0 means the campaign runs unlimited, at
	// simulation speed.
	Rate float64 `json:"rate"`
	// TTLMS is the lease lifetime; heartbeat well inside it.
	TTLMS     int64  `json:"ttl_ms"`
	CloudAddr string `json:"cloud_addr"`
	// Campaign knobs mirrored from the coordinator's config.
	Attempts       int              `json:"attempts,omitempty"`
	RoundTimeoutMS int64            `json:"round_timeout_ms,omitempty"`
	Faults         *faults.Scenario `json:"faults,omitempty"`
}

// HeartbeatRequest renews a worker's lease. Metrics is the worker's
// current snapshot — the fleet view's freshness rides on the same
// cadence as liveness.
type HeartbeatRequest struct {
	Worker  string           `json:"worker"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// HeartbeatReply reports the renewed lease's remaining lifetime.
type HeartbeatReply struct {
	ExpiresInMS int64 `json:"expires_in_ms"`
}

// NextRequest asks for the worker's next assignment (renewing the
// lease as a side effect).
type NextRequest struct {
	Worker string `json:"worker"`
}

// Assignment states.
const (
	// StateRun carries a shard to execute.
	StateRun = "run"
	// StateWait means nothing is assignable right now; poll again
	// after RetryMS.
	StateWait = "wait"
	// StateDone means the campaign is complete; the lease has been
	// released and the worker should exit.
	StateDone = "done"
)

// Assignment is the coordinator's answer to /coord/next.
type Assignment struct {
	State   string   `json:"state"` // StateRun, StateWait or StateDone
	Round   int      `json:"round,omitempty"`
	Day     int      `json:"day,omitempty"`
	Shard   int      `json:"shard,omitempty"`
	Regions []string `json:"regions,omitempty"`
	RetryMS int64    `json:"retry_ms,omitempty"`
}

// SubmitRequest streams one completed shard back. The coordinator
// accepts exactly one submission per (round, shard), and only from
// the shard's current owner — a stale submission after re-assignment
// or a round timeout is answered Accepted=false and discarded.
type SubmitRequest struct {
	Worker string           `json:"worker"`
	Round  int              `json:"round"`
	Shard  int              `json:"shard"`
	Result core.ShardResult `json:"result"`
	// Metrics is the worker's snapshot as of this submission.
	Metrics metrics.Snapshot `json:"metrics"`
	// Spans are the worker's spans completed since its previous
	// submission: the coordinator renumbers them into its own tracer,
	// parents them under the round's span, and stamps each with the
	// worker identity — so its journal reconstructs the distributed
	// campaign alone — and keeps the slowest for the worker's fleet
	// row. Spans from an unaccepted (stale) submission are discarded
	// with it.
	Spans []trace.SpanSnapshot `json:"spans,omitempty"`
}

// SubmitReply acknowledges a submission.
type SubmitReply struct {
	Accepted bool `json:"accepted"`
}

// Status is a snapshot of the campaign's progress: the live status of
// the /coord/fleet document and, tagged with the event that produced
// it, each record of its status history.
type Status struct {
	// TimeMS is the wall-clock instant, in Unix milliseconds.
	TimeMS int64 `json:"time_ms"`
	// Event names what a history record marks: "register",
	// "round_begin", "submit", "lease_expired", "round_end",
	// "campaign_done". Empty on the live document.
	Event string `json:"event,omitempty"`
	// Worker is the worker the event concerns, when there is one.
	Worker string `json:"worker,omitempty"`

	Cloud           string `json:"cloud"`
	RoundsTotal     int    `json:"rounds_total"`
	RoundsCompleted int    `json:"rounds_completed"`
	Done            bool   `json:"done"`
	Round           int    `json:"round"` // current round index, -1 when idle
	Day             int    `json:"day"`
	ShardsPending   int    `json:"shards_pending"`
	ShardsAssigned  int    `json:"shards_assigned"`
	ShardsDone      int    `json:"shards_done"`
	Degraded        bool   `json:"degraded,omitempty"`

	// Cumulative campaign counters, so any single record tells the
	// whole reassignment story up to its instant.
	LeasesExpired    int64 `json:"leases_expired"`
	ShardsReassigned int64 `json:"shards_reassigned"`

	// Quota state: the global §7 rate (0 = unlimited, simulation
	// speed), the rate currently leased (live leases × slice), and
	// their ratio (0 when unlimited). Each lease is on its worker's
	// row of the fleet document.
	Rate             float64 `json:"rate"`
	LeasedRate       float64 `json:"leased_rate"`
	QuotaUtilization float64 `json:"quota_utilization"`
}
