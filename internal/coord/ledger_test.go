package coord

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"whowas/internal/core"
	"whowas/internal/metrics"
	"whowas/internal/trace"
)

// pureLedger is a fresh ledger over nShards one-region shards and
// nRounds scheduled rounds, with three lease slices of a 5 s TTL.
func pureLedger(nShards, nRounds int) *ledger {
	l := &ledger{
		cfg:       Config{MaxWorkers: 3, LeaseTTL: 5 * time.Second, Rate: 300},
		cloudName: "pure",
		slice:     100,
		workers:   make(map[string]*workerState),
	}
	for i := 0; i < nShards; i++ {
		l.shards = append(l.shards, []string{fmt.Sprintf("region-%d", i)})
	}
	for d := 0; d < nRounds; d++ {
		l.days = append(l.days, 3*d)
	}
	return l
}

// eventSource deals a seeded event sequence against a ledger it reads
// but never writes: requests from five workers (two more than the
// three lease slices, so registers get refused), and the round loop's
// begin, reaps, close and end, then the campaign's end.
type eventSource struct {
	rng     *rand.Rand
	workers []string
	round   int // rounds begun
	base    uint64
}

func (g *eventSource) next(l *ledger) event {
	w := g.workers[g.rng.Intn(len(g.workers))]
	snap := metrics.Snapshot{Counters: map[string]int64{probesCounter: int64(g.rng.Intn(1000))}}
	switch k := g.rng.Intn(100); {
	case l.round == nil && l.last != nil && l.roundsDone < g.round:
		return event{kind: evRoundEnd, degraded: g.rng.Intn(4) == 0}
	case l.round == nil && g.round < len(l.days) && k < 10:
		g.round++
		return event{kind: evRoundBegin, round: g.round - 1, day: l.days[g.round-1], root: uint64(1000 * g.round)}
	case l.round == nil && g.round == len(l.days) && !l.campaignDone:
		return event{kind: evCampaignDone}
	case l.round != nil && (k == 0 || k < 30 && l.round.nDone == len(l.shards)):
		return event{kind: evRoundClose}
	case k < 25:
		return event{kind: evRegister, worker: w}
	case k < 45:
		return event{kind: evHeartbeat, worker: w, metrics: snap}
	case k < 70:
		return event{kind: evNext, worker: w}
	case k < 95:
		// Mostly the worker's own shard of the open round; sometimes a
		// stale round, a shard it does not own, or one out of range.
		ev := event{kind: evSubmit, worker: w, round: g.round - 1, shard: g.rng.Intn(len(l.shards)+1) - 1, metrics: snap,
			result: &core.ShardResult{Degraded: g.rng.Intn(8) == 0},
			spans:  []trace.SpanSnapshot{{ID: 7, Name: "scan", DurNS: g.rng.Int63n(1e9)}, {ID: 8, Parent: 7, Name: "probe"}}}
		if r := l.round; r != nil && g.rng.Intn(4) > 0 {
			for shard, owner := range r.owner {
				if owner == w && !r.done[shard] {
					ev.shard = shard
				}
			}
		}
		if g.rng.Intn(10) == 0 {
			ev.round--
		}
		g.base += 2
		ev.base = g.base
		return ev
	default:
		return event{kind: evReap}
	}
}

// TestLedgerApplyIsPure drives two fresh ledgers through one seeded
// sequence of events at instants the test picks — no HTTP, socket,
// sleep or wall clock — and requires them to end deeply equal, status
// history included. After every event it holds the ledger to the
// lease and shard invariants.
func TestLedgerApplyIsPure(t *testing.T) {
	const nShards, nRounds, nEvents = 4, 12, 2000
	a, b := pureLedger(nShards, nRounds), pureLedger(nShards, nRounds)
	src := &eventSource{rng: rand.New(rand.NewSource(37)), workers: []string{"w0", "w1", "w2", "w3", "w4"}}
	now := time.Unix(1380499200, 0)
	accepted := map[[2]int]int{} // (round, shard) -> accepted submissions
	var kinds [evCampaignDone + 1]int
	for i := 0; i < nEvents; i++ {
		now = now.Add(time.Duration(src.rng.Intn(600)) * time.Millisecond)
		ev := src.next(a)
		kinds[ev.kind]++

		// What the reap at the head of apply must do: every lease past
		// due dies, and each unfinished shard it held goes back in the
		// queue once. A live worker that registers again gives up its
		// own shards too.
		lapsed, requeue := map[string]bool{}, 0
		for id, ws := range a.workers {
			lapsed[id] = !ws.expires.IsZero() && now.After(ws.expires)
		}
		if r := a.round; r != nil {
			for shard, owner := range r.owner {
				if owner != "" && !r.done[shard] && (lapsed[owner] || ev.kind == evRegister && owner == ev.worker) {
					requeue++
				}
			}
		}
		dead := 0
		for _, l := range lapsed {
			if l {
				dead++
			}
		}

		fa, fb := a.apply(ev, now), b.apply(ev, now)
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("event %d (%+v): effects diverge:\n%+v\n%+v", i, ev, fa, fb)
		}
		if fa.expired != int64(dead) || fa.requeued != int64(requeue) {
			t.Fatalf("event %d: reaped %d leases and re-queued %d shards, want %d and %d", i, fa.expired, fa.requeued, dead, requeue)
		}
		if ev.kind == evSubmit && fa.ok {
			if accepted[[2]int{ev.round, ev.shard}]++; accepted[[2]int{ev.round, ev.shard}] > 1 {
				t.Fatalf("event %d: round %d shard %d accepted twice", i, ev.round, ev.shard)
			}
		}
		checkLedger(t, i, a, fa)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two ledgers fed the same events ended apart")
	}
	if a.roundsDone != nRounds || !a.campaignDone || a.expired == 0 || a.requeued == 0 || len(accepted) == 0 {
		t.Errorf("the sequence did not cover the campaign: %d rounds, done %v, %d expiries, %d re-queues, %d accepted shards",
			a.roundsDone, a.campaignDone, a.expired, a.requeued, len(accepted))
	}
	t.Logf("events by kind %v, %d shards accepted, %d expiries, %d re-queues", kinds, len(accepted), a.expired, a.requeued)
}

// checkLedger holds the ledger to its invariants after event i: live
// leases within the fleet cap; pending, owned-and-unfinished and done
// partitioning the open round's shards, with a result exactly on the
// done ones; and a closed round handing back exactly its done shards.
func checkLedger(t *testing.T, i int, l *ledger, fx effects) {
	t.Helper()
	if held := l.leases(""); held > l.cfg.MaxWorkers || held != fx.held {
		t.Fatalf("event %d: %d live leases (effects say %d), cap %d", i, held, fx.held, l.cfg.MaxWorkers)
	}
	if r := l.round; r != nil {
		seen := make([]int, len(l.shards))
		for _, shard := range r.pending {
			if seen[shard]++; r.owner[shard] != "" || r.done[shard] {
				t.Fatalf("event %d: pending shard %d is owned by %q or done", i, shard, r.owner[shard])
			}
		}
		nDone := 0
		for shard := range seen {
			if r.done[shard] {
				nDone++
				seen[shard]++
			} else if r.owner[shard] != "" {
				seen[shard]++
				if ws := l.workers[r.owner[shard]]; ws == nil || ws.expires.IsZero() {
					t.Fatalf("event %d: shard %d owned by %q, which holds no lease", i, shard, r.owner[shard])
				}
			}
			if seen[shard] != 1 {
				t.Fatalf("event %d: shard %d is in %d of pending/owned/done", i, shard, seen[shard])
			}
			if (r.results[shard] != nil) != r.done[shard] {
				t.Fatalf("event %d: shard %d done %v with result %v", i, shard, r.done[shard], r.results[shard])
			}
		}
		if nDone != r.nDone || fx.complete != (nDone == len(l.shards)) {
			t.Fatalf("event %d: %d shards done, ledger counts %d, complete %v", i, nDone, r.nDone, fx.complete)
		}
	}
	if fx.results != nil {
		for shard, res := range fx.results {
			if (res != nil) != l.last.done[shard] {
				t.Fatalf("event %d: closed round's shard %d done %v with result %v", i, shard, l.last.done[shard], res)
			}
		}
		if l.last.results != nil {
			t.Fatalf("event %d: the ledger kept the closed round's results", i)
		}
	}
}
