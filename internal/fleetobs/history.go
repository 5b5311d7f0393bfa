// The coordinator's status-history ring: every interesting campaign
// event (round begins and ends, shard submits, lease expiries, worker
// registrations) appends one StatusRecord, and the bounded ring keeps
// the most recent window. The history is what makes a SIGKILLed
// worker legible after the fact — its lease expiry and the resulting
// shard reassignment are records, not just log lines.
package fleetobs

import "sync"

// LeaseState is one worker's slice of the probe budget at a moment in
// time: the leased rate and how long until the lease lapses unless
// renewed. A negative ExpiresInMS marks a lease already past due.
type LeaseState struct {
	Worker      string  `json:"worker"`
	Rate        float64 `json:"rate"`
	ExpiresInMS int64   `json:"expires_in_ms"`
}

// StatusRecord is one entry in the coordinator's status history: a
// timestamped campaign-progress snapshot tagged with the event that
// produced it.
type StatusRecord struct {
	// TimeMS is the wall-clock instant, in Unix milliseconds.
	TimeMS int64 `json:"time_ms"`
	// Event names what happened: "register", "round_begin", "submit",
	// "lease_expired", "round_end", "campaign_done".
	Event string `json:"event"`
	// Worker is the worker the event concerns, when there is one.
	Worker string `json:"worker,omitempty"`

	Round          int  `json:"round"`
	Day            int  `json:"day"`
	RoundsDone     int  `json:"rounds_done"`
	ShardsPending  int  `json:"shards_pending"`
	ShardsAssigned int  `json:"shards_assigned"`
	ShardsDone     int  `json:"shards_done"`
	Degraded       bool `json:"degraded,omitempty"`

	// Cumulative campaign counters, so any single record tells the
	// whole reassignment story up to its instant.
	LeasesExpired    int64 `json:"leases_expired"`
	ShardsReassigned int64 `json:"shards_reassigned"`

	// Quota state: the global §7 rate, the slice currently leased, and
	// their ratio (0 when unlimited), plus the per-worker leases.
	Rate             float64      `json:"rate"`
	LeasedRate       float64      `json:"leased_rate"`
	QuotaUtilization float64      `json:"quota_utilization"`
	Leases           []LeaseState `json:"leases,omitempty"`
}

// History is a bounded, concurrency-safe ring of StatusRecords. The
// zero value is unusable; construct with NewHistory. Its mutex is a
// leaf: no History method calls out while holding it.
type History struct {
	mu    sync.Mutex
	max   int
	buf   []StatusRecord
	next  int // ring cursor once len(buf) == max
	total int64
}

// NewHistory builds a ring keeping the most recent max (> 0) records.
func NewHistory(max int) *History {
	return &History{max: max}
}

// Append files one record, dropping the oldest at capacity. Nil-safe.
func (h *History) Append(rec StatusRecord) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.total++
	if len(h.buf) < h.max {
		h.buf = append(h.buf, rec)
		return
	}
	h.buf[h.next] = rec
	h.next = (h.next + 1) % len(h.buf)
}

// Snapshot returns the retained records oldest-first.
func (h *History) Snapshot() []StatusRecord {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]StatusRecord, 0, len(h.buf))
	out = append(out, h.buf[h.next:]...)
	out = append(out, h.buf[:h.next]...)
	return out
}

// Total returns how many records were ever appended (the ring keeps
// only the most recent of them).
func (h *History) Total() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}
