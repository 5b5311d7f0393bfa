package main

import (
	"bytes"
	"strings"
	"testing"

	"whowas/internal/coord"
)

// fleetDoc is a fleet document mid-round: w0 holds a lease, w1 lost
// its lease, and the history's last record is w1's expiry.
func fleetDoc(rate float64) *coord.Fleet {
	slice := rate / 4
	st := coord.Status{
		Cloud: "ec2", RoundsTotal: 3, Round: 1, Day: 2,
		ShardsPending: 1, ShardsAssigned: 1, ShardsDone: 2,
		Rate: rate, LeasedRate: slice,
	}
	if rate > 0 {
		st.QuotaUtilization = slice / rate
	}
	return &coord.Fleet{
		Status: st,
		Workers: []coord.WorkerView{
			{Worker: "w0", SeenAgoMS: 400, Probes: 900, Lease: &coord.LeaseState{Rate: slice, ExpiresInMS: 4600}},
			{Worker: "w1", SeenAgoMS: 7200, Probes: 300},
		},
		HistoryTotal: 1,
		History: []coord.Status{{
			Event: "lease_expired", Worker: "w1", Round: 1, Day: 2,
			ShardsPending: 1, ShardsAssigned: 1, ShardsDone: 2,
			LeasesExpired: 1, ShardsReassigned: 1,
		}},
	}
}

// row returns the dashboard line of a worker's row.
func row(t *testing.T, out, worker string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == worker {
			return f
		}
	}
	t.Fatalf("no row for %s in:\n%s", worker, out)
	return nil
}

func TestRenderFleet(t *testing.T) {
	for _, tc := range []struct {
		rate              float64
		budget, leaseCell string
	}{
		{0, "budget: unlimited (simulation speed), 1 lease(s)", "unlim"},
		{400, "budget: 400 pps, leased 100 (25.0%)", "100"},
	} {
		var buf bytes.Buffer
		renderFleet(&buf, "127.0.0.1:8395", fleetDoc(tc.rate), 10)
		out := buf.String()
		if !strings.Contains(out, tc.budget) {
			t.Errorf("rate %v: no %q in:\n%s", tc.rate, tc.budget, out)
		}
		// The last two columns are the lease slice and its TTL.
		w0 := row(t, out, "w0")
		if got := w0[len(w0)-2:]; got[0] != tc.leaseCell || got[1] != "4600" {
			t.Errorf("rate %v: w0 lease columns %v, want [%s 4600]", tc.rate, got, tc.leaseCell)
		}
		w1 := row(t, out, "w1")
		if got := w1[len(w1)-2:]; got[0] != "-" || got[1] != "-" {
			t.Errorf("rate %v: leaseless w1 lease columns %v, want [- -]", tc.rate, got)
		}
		if want := "lease_expired worker=w1 round=1 day=2 shards=1/1/2 leases_expired=1 reassigned=1"; !strings.Contains(out, want) {
			t.Errorf("rate %v: no history line %q in:\n%s", tc.rate, want, out)
		}
	}
}
