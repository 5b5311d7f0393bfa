// Package coord is the distributed campaign: a coordinator that owns
// the round schedule, the region-shard assignment, the one store, and
// the global §7 probe-rate budget as a leased-quota service
// (internal/ratelimit.Budget), plus the worker that leases a slice of
// that budget and runs assigned shards through core.ShardRunner
// against a shared whowas-cloudd.
//
// The protocol is JSON over HTTP on the shared internal/httpd stack,
// beside its observability surface and internal/ops' routes; a refusal
// is an httpd.ErrorDoc carrying the reason:
//
//	POST /coord/register   RegisterRequest  → RegisterReply (409 when the budget is full)
//	POST /coord/heartbeat  HeartbeatRequest → HeartbeatReply (410 when the lease is gone)
//	POST /coord/next       NextRequest      → Assignment     (410 when the lease is gone)
//	POST /coord/submit     SubmitRequest    → SubmitReply
//	GET  /coord/status                      → Status
//	GET  /coord/fleet                       → Fleet
//
// Liveness is the lease: a worker that stops renewing (heartbeat or
// /next, both renew) expires after the TTL, its tokens return to the
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
	"whowas/internal/fleetobs"
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
	Lease string `json:"lease"` // lease ID (the worker ID)
	// Rate is the worker's leased slice of the global §7 probe budget,
	// in probes per second. When Unlimited is set the campaign runs at
	// simulation speed and the worker uses scanner.UnlimitedRate
	// instead.
	Rate      float64 `json:"rate"`
	Unlimited bool    `json:"unlimited"`
	// TTLMS is the lease lifetime; heartbeat well inside it.
	TTLMS     int64  `json:"ttl_ms"`
	CloudAddr string `json:"cloud_addr"`
	// Campaign knobs mirrored from the coordinator's config.
	Attempts       int              `json:"attempts,omitempty"`
	KeepBodies     bool             `json:"keep_bodies,omitempty"`
	RoundTimeoutMS int64            `json:"round_timeout_ms,omitempty"`
	Faults         *faults.Scenario `json:"faults,omitempty"`
}

// HeartbeatRequest renews a worker's lease. Obs, when present, is the
// worker's current observability report — the fleet view's freshness
// rides on the same cadence as liveness.
type HeartbeatRequest struct {
	Worker string                 `json:"worker"`
	Obs    *fleetobs.WorkerReport `json:"obs,omitempty"`
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
	// Obs is the worker's observability report as of this submission.
	Obs *fleetobs.WorkerReport `json:"obs,omitempty"`
	// Spans is the worker's span buffer drained for this shard: the
	// coordinator renumbers them into its own tracer, parents them
	// under the round's span, and stamps each with the worker identity
	// — so its journal reconstructs the distributed campaign alone.
	// Spans from an unaccepted (stale) submission are discarded with it.
	Spans []trace.SpanSnapshot `json:"spans,omitempty"`
}

// SubmitReply acknowledges a submission.
type SubmitReply struct {
	Accepted bool `json:"accepted"`
}

// Status is the coordinator's live state document (GET /coord/status).
type Status struct {
	Cloud           string   `json:"cloud"`
	RoundsTotal     int      `json:"rounds_total"`
	RoundsCompleted int      `json:"rounds_completed"`
	Done            bool     `json:"done"`
	Round           int      `json:"round"` // current round index, -1 when idle
	Day             int      `json:"day,omitempty"`
	ShardsPending   int      `json:"shards_pending"`
	ShardsAssigned  int      `json:"shards_assigned"`
	ShardsDone      int      `json:"shards_done"`
	Workers         []string `json:"workers"` // live lease holders, sorted
	Rate            float64  `json:"rate"`
	LeasedRate      float64  `json:"leased_rate"`
	Unlimited       bool     `json:"unlimited,omitempty"`
}

// Fleet is the /coord/fleet document: the live Status plus the
// aggregated per-worker and fleet-total observability view (metrics,
// probe throughput, lease states, and the status-history tail).
type Fleet struct {
	Status Status `json:"status"`
	fleetobs.FleetView
}
