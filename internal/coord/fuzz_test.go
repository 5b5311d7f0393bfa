package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"whowas/internal/core"
	"whowas/internal/store"
)

// FuzzCoordRequests feeds arbitrary bodies to the register, heartbeat,
// next and submit handlers of one coordinator with a round open, as
// a fleet's workers would mid-round. Whatever the bytes, a handler
// must not panic, must answer no 5xx but the store's refusal of a
// merge, and must leave the ledger within its invariants. The fake
// clock moves between bodies, so leases also lapse and shards go back
// in the queue.
func FuzzCoordRequests(f *testing.F) {
	s, clk := leaseServer(f, Config{MaxWorkers: 2, Rate: 200})
	if _, err := s.p.Store.BeginRound(0); err != nil {
		f.Fatal(err)
	}
	openRound(s)
	handlers := []http.HandlerFunc{s.handleRegister, s.handleHeartbeat, s.handleNext, s.handleSubmit}

	valid := []any{
		RegisterRequest{Worker: "w0"},
		HeartbeatRequest{Worker: "w0"},
		NextRequest{Worker: "w0"},
		SubmitRequest{Worker: "w0", Round: 0, Shard: 0, Result: core.ShardResult{Records: []*store.Record{{IP: 0x36000001, OpenPorts: store.PortHTTP}}}},
	}
	// Seeds run in order: the valid bodies take a lease, a shard and
	// its merge; the truncated copies come after, the first of them
	// past the lease's TTL.
	bodies := make([][]byte, len(valid))
	for i, body := range valid {
		buf, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		bodies[i] = buf
		f.Add(uint8(i), uint16(0), buf)
	}
	for i, buf := range bodies {
		f.Add(uint8(i), uint16(6000), buf[:len(buf)/2])
	}
	// A second worker's shard, submitted with a null record.
	f.Add(uint8(0), uint16(0), []byte(`{"worker":"w1"}`))
	f.Add(uint8(2), uint16(0), []byte(`{"worker":"w1"}`))
	f.Add(uint8(3), uint16(0), []byte(`{"worker":"w1","round":0,"shard":1,"result":{"records":[null]}}`))

	i := 0
	f.Fuzz(func(t *testing.T, endpoint uint8, advanceMS uint16, body []byte) {
		clk.Advance(time.Duration(advanceMS) * time.Millisecond)
		rec := httptest.NewRecorder()
		handlers[int(endpoint)%len(handlers)](rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		if rec.Code >= 500 && !(rec.Code == http.StatusInternalServerError && int(endpoint)%len(handlers) == 3) {
			t.Fatalf("endpoint %d answered %d to %q: %s", endpoint, rec.Code, body, rec.Body)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		fx := effects{held: s.leases("")}
		if r := s.round; r != nil {
			fx.complete = r.nDone == len(s.shards)
		}
		checkLedger(t, i, &s.ledger, fx)
		i++
	})
}
