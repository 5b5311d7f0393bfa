package colstore_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"whowas/internal/cloudapi"
	"whowas/internal/core"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
)

// TestPointReadMatchesScan is the direct differential on real pages:
// for every (ip, round) of a scale-512 campaign collected onto
// colstore, the uncached point read History makes equals the matching
// element of Records(round), field for field — and History returns
// nothing else.
func TestPointReadMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("collects a scale-512 campaign; skipped with -short")
	}
	const rounds = 2
	dir := t.TempDir()
	cfg := cloudapi.DefaultEC2Config(512, 20131130)
	p, err := core.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := colstore.Open(dir, colstore.Options{CloudName: cfg.Name})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseStoreBackend(backend); err != nil {
		t.Fatal(err)
	}
	camp := core.FastCampaign()
	camp.RoundDays = core.DefaultRoundSchedule(cfg.Days)[:rounds]
	if err := p.RunCampaign(context.Background(), camp); err != nil {
		t.Fatal(err)
	}
	if err := p.Store.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := colstore.Open(dir, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	scans := make([][]*store.Record, rounds)
	want := map[ipaddr.Addr]int{} // how many rounds hold the IP
	for i := range scans {
		if scans[i], err = b.Records(i); err != nil {
			t.Fatal(err)
		}
		for _, rec := range scans[i] {
			want[rec.IP]++
		}
	}
	if len(want) < 1000 {
		t.Fatalf("campaign stored only %d distinct IPs", len(want))
	}
	for ip, n := range want {
		hist, err := b.History(ip)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != n {
			t.Fatalf("History(%s) returned %d records, %d rounds hold it", ip, len(hist), n)
		}
		for _, got := range hist {
			scan := scans[got.Round]
			j := sort.Search(len(scan), func(k int) bool { return scan[k].IP >= ip })
			if j == len(scan) || !reflect.DeepEqual(*got, *scan[j]) {
				t.Fatalf("History(%s) in round %d:\n got %+v\nscan %+v", ip, got.Round, *got, *scan[min(j, len(scan)-1)])
			}
		}
	}
}
