package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// randomStore generates a store of records with controlled structure:
// nFamilies page families, each rendered across several IPs and
// rounds with small revisions.
func randomStore(t *testing.T, seed int64, nFamilies, nRounds int) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := store.New("prop")
	type family struct {
		title  string
		server string
		base   simhash.Fingerprint
		ips    []string
	}
	families := make([]family, nFamilies)
	for i := range families {
		f := family{
			title:  fmt.Sprintf("Family %d", i),
			server: []string{"nginx", "Apache", "Microsoft-IIS/8.0"}[rng.Intn(3)],
			base:   simhash.Hash(fmt.Sprintf("base content for family %d with unique words %d", i, rng.Int())),
		}
		for k := 0; k < 1+rng.Intn(4); k++ {
			f.ips = append(f.ips, fmt.Sprintf("10.%d.%d.%d", i/200, i%200, k+1))
		}
		families[i] = f
	}
	for r := 0; r < nRounds; r++ {
		if _, err := s.BeginRound(r * 2); err != nil {
			t.Fatal(err)
		}
		for _, f := range families {
			h := f.base
			if rng.Intn(3) == 0 {
				h = h.FlipBits(rng.Intn(96)) // small revision
			}
			for _, ip := range f.ips {
				if rng.Intn(10) == 0 {
					continue // occasionally unavailable
				}
				rec := &store.Record{
					IP:         ipaddr.MustParseAddr(ip),
					OpenPorts:  store.PortHTTP,
					HTTPStatus: 200,
					Title:      f.title,
					Server:     f.server,
					Simhash:    h,
					BodyLen:    100,
				}
				if err := s.PutBatch([]*store.Record{rec}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestClusteringInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st := randomStore(t, seed, 60, 6)
		res, err := Run(st, Config{Threshold: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Invariant 1: every record belongs to at most one cluster, and
		// cluster membership matches the record label.
		seen := map[*store.Record]int64{}
		for _, c := range res.Clusters {
			for _, rec := range c.Records {
				if prev, dup := seen[rec]; dup {
					t.Fatalf("seed %d: record in clusters %d and %d", seed, prev, c.ID)
				}
				seen[rec] = c.ID
				if rec.Cluster != c.ID {
					t.Fatalf("seed %d: record label %d != cluster %d", seed, rec.Cluster, c.ID)
				}
			}
		}
		// Invariant 2: counts are consistent.
		if res.SecondLevel < res.TopLevel {
			t.Errorf("seed %d: L2 %d < L1 %d", seed, res.SecondLevel, res.TopLevel)
		}
		if res.Final > res.SecondLevel {
			t.Errorf("seed %d: final %d > L2 %d", seed, res.Final, res.SecondLevel)
		}
		if res.Final != len(res.Clusters) {
			t.Errorf("seed %d: Final %d != len(Clusters) %d", seed, res.Final, len(res.Clusters))
		}
		// Invariant 3: within a final cluster, all records share at
		// least the level-1 key lineage — title equality in this
		// fixture (merges require one shared feature, and the fixture
		// never reuses titles across families).
		for _, c := range res.Clusters {
			for _, rec := range c.Records {
				if rec.Title != c.Title {
					t.Fatalf("seed %d: cluster %d mixes titles %q and %q", seed, c.ID, c.Title, rec.Title)
				}
			}
		}
		// Invariant 4: determinism — rerunning yields identical counts.
		res2, err := Run(st, Config{Threshold: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res2.Final != res.Final || res2.TopLevel != res.TopLevel || res2.SecondLevel != res.SecondLevel {
			t.Errorf("seed %d: rerun differs: %d/%d/%d vs %d/%d/%d", seed,
				res.TopLevel, res.SecondLevel, res.Final, res2.TopLevel, res2.SecondLevel, res2.Final)
		}
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Raising the level-2 threshold can only merge more: the number of
	// second-level clusters must be non-increasing in the threshold.
	st := randomStore(t, 9, 40, 4)
	prev := -1
	for _, th := range []int{1, 2, 4, 8, 16} {
		res, err := Run(st, Config{Threshold: th})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.SecondLevel > prev {
			t.Errorf("threshold %d: L2 %d > previous %d", th, res.SecondLevel, prev)
		}
		prev = res.SecondLevel
	}
}
