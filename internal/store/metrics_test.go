package store

import (
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
)

func TestStoreMetrics(t *testing.T) {
	s := New("test")
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)

	if _, err := s.BeginRound(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.PutBatch([]*Record{{IP: ipaddr.Addr(i), OpenPorts: PortHTTP, Body: "abcd"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["store.records"] != 3 {
		t.Errorf("store.records = %d, want 3", snap.Counters["store.records"])
	}
	if snap.Counters["store.rounds"] != 1 {
		t.Errorf("store.rounds = %d, want 1", snap.Counters["store.rounds"])
	}

	if _, err := s.BeginRound(1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]*Record{{IP: ipaddr.Addr(9), OpenPorts: PortHTTP, Body: "dropped"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if snap.Counters["store.rounds"] != 2 {
		t.Errorf("store.rounds = %d, want 2", snap.Counters["store.rounds"])
	}

	// Detaching stops accumulation without disturbing stored data.
	s.SetMetrics(nil)
	if _, err := s.BeginRound(2); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]*Record{{IP: ipaddr.Addr(12), OpenPorts: PortHTTP}}); err != nil {
		t.Fatal(err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["store.records"]; got != 4 {
		t.Errorf("records counter moved after detach: %d", got)
	}
	if s.NumRounds() != 3 {
		t.Errorf("rounds stored = %d", s.NumRounds())
	}
}
