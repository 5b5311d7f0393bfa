package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whowas/internal/httpd"
)

// TestOverCapBodyRefused: a register or a submit whose body is over the
// control plane's 1 GiB cap is answered 413 with an ErrorDoc and never
// reaches the ledger: no history record, no lease for the registering
// worker, and the submitted shard stays unfinished with its owner.
func TestOverCapBodyRefused(t *testing.T) {
	s, _ := leaseServer(t, Config{MaxWorkers: 2})
	if _, code, reason := register(t, s, "w0"); code != http.StatusOK {
		t.Fatalf("register = %d %s", code, reason)
	}
	openRound(s)
	if a, code := next(t, s, "w0"); code != http.StatusOK || a.State != StateRun || a.Shard != 0 {
		t.Fatalf("next = %d %+v, want shard 0", code, a)
	}
	before := s.fleetView()
	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
		body any
	}{
		{"register", s.handleRegister, RegisterRequest{Worker: "w1"}},
		{"submit", s.handleSubmit, SubmitRequest{Worker: "w0", Round: 0, Shard: 0}},
	} {
		buf, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(buf))
		req.ContentLength = 1<<30 + 1
		rec := httptest.NewRecorder()
		tc.h(rec, req)
		var doc httpd.ErrorDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusRequestEntityTooLarge || err != nil || doc.Error == "" {
			t.Errorf("over-cap %s = %d %q, want 413 with an ErrorDoc", tc.name, rec.Code, rec.Body)
		}
	}
	after := s.fleetView()
	if after.HistoryTotal != before.HistoryTotal {
		t.Errorf("history grew from %d to %d records on refused bodies", before.HistoryTotal, after.HistoryTotal)
	}
	if got := leaseHolders(s); strings.Join(got, " ") != "w0" {
		t.Errorf("lease holders = %v, want [w0]", got)
	}
	s.mu.Lock()
	done, owner := s.round.done[0], s.round.owner[0]
	s.mu.Unlock()
	if done || owner != "w0" || after.Status.ShardsDone != 0 {
		t.Errorf("shard 0 done %v, owner %q, %d shards done; want it unfinished with w0", done, owner, after.Status.ShardsDone)
	}
}

// TestLeaseTTLBelowWireResolution: a lease TTL under the protocol's 1 ms
// resolution is refused by NewServer, naming the bound, before it
// dials the cloud.
func TestLeaseTTLBelowWireResolution(t *testing.T) {
	for _, ttl := range []time.Duration{3 * time.Nanosecond, 500 * time.Microsecond} {
		// Nothing listens on port 1: a dial would fail with another error.
		_, err := NewServer(context.Background(), Config{CloudAddr: "127.0.0.1:1", LeaseTTL: ttl})
		if err == nil || !strings.Contains(err.Error(), "1ms") {
			t.Errorf("LeaseTTL %v: NewServer = %v, want an error naming the 1ms bound", ttl, err)
		}
	}
}
