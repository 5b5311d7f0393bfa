package main

import (
	"reflect"
	"sort"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

func flatten(c *synthCampaign) []store.Record {
	var out []store.Record
	for _, recs := range c.rounds {
		for _, r := range recs {
			out = append(out, *r)
		}
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b := genCampaign(7, 4, 300), genCampaign(7, 4, 300)
	if !reflect.DeepEqual(flatten(a), flatten(b)) {
		t.Error("same seed generated different records")
	}
	for name, keys := range map[string]func(*synthCampaign) []lookupKey{
		"hit":      func(c *synthCampaign) []lookupKey { return c.hitKeys(50, 7) },
		"in-range": func(c *synthCampaign) []lookupKey { return c.inRangeMissKeys(50) },
		"out":      func(c *synthCampaign) []lookupKey { return c.outOfRangeMissKeys(50) },
	} {
		if !reflect.DeepEqual(keys(a), keys(b)) {
			t.Errorf("same seed generated different %s keys", name)
		}
	}

	other := genCampaign(8, 4, 300)
	if reflect.DeepEqual(flatten(a), flatten(other)) {
		t.Error("different seeds generated the same records")
	}
	if reflect.DeepEqual(a.hitKeys(50, 7), other.hitKeys(50, 7)) {
		t.Error("different seeds generated the same hit keys")
	}
	if reflect.DeepEqual(a.hitKeys(50, 7), a.hitKeys(50, 9)) {
		t.Error("different streams generated the same hit keys")
	}
}

func TestGeneratorShape(t *testing.T) {
	c := genCampaign(3, synthRounds, 700)
	if !sort.SliceIsSorted(c.pool, func(i, j int) bool { return c.pool[i] < c.pool[j] }) {
		t.Fatal("pool not ascending")
	}
	for i := 1; i < len(c.pool); i++ {
		if c.pool[i]-c.pool[i-1] < 7 {
			t.Fatalf("slots %d and %d are %d apart; in-range miss keys need a gap of 7", i-1, i, c.pool[i]-c.pool[i-1])
		}
	}
	var total int64
	for r, recs := range c.rounds {
		if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].IP < recs[j].IP }) {
			t.Errorf("round %d not ascending by IP", r)
		}
		total += int64(len(recs))
	}
	if total != c.records {
		t.Errorf("records = %d, rounds hold %d", c.records, total)
	}
	// About six in seven slots answer each round.
	if share := float64(total) / float64(synthRounds*700); share < 0.80 || share > 0.92 {
		t.Errorf("present share %.3f, want about 6/7", share)
	}
}

// TestKeysAgainstAStore ingests a small campaign into the memory store
// and holds every key stream to the answers the store gives.
func TestKeysAgainstAStore(t *testing.T) {
	c := genCampaign(11, 6, 400)
	st := store.New("bench")
	if err := c.ingest(st); err != nil {
		t.Fatal(err)
	}
	inPool := map[ipaddr.Addr]bool{}
	for _, ip := range c.pool {
		inPool[ip] = true
	}
	for _, k := range c.hitKeys(200, 7) {
		if !inPool[k.IP] {
			t.Fatalf("hit key %s is not a pool IP", k.IP)
		}
		if !checkHistory(k, st.History(k.IP)) {
			t.Errorf("hit key %s: store has %d records, generator says rounds %v", k.IP, len(st.History(k.IP)), k.Rounds)
		}
	}
	lo, hi := c.pool[0], c.pool[len(c.pool)-1]
	for _, k := range c.inRangeMissKeys(200) {
		if inPool[k.IP] || k.IP <= lo || k.IP >= hi || k.Rounds != nil {
			t.Errorf("in-range miss key %s (pool %s..%s, rounds %v)", k.IP, lo, hi, k.Rounds)
		}
		if !checkHistory(k, st.History(k.IP)) {
			t.Errorf("in-range miss key %s has history", k.IP)
		}
	}
	for _, k := range c.outOfRangeMissKeys(200) {
		if k.IP >= lo && k.IP <= hi {
			t.Errorf("out-of-range miss key %s inside %s..%s", k.IP, lo, hi)
		}
		if !checkHistory(k, st.History(k.IP)) {
			t.Errorf("out-of-range miss key %s has history", k.IP)
		}
	}

	// checkHistory rejects a wrong answer.
	k := c.hitKeys(1, 7)[0]
	got := st.History(k.IP)
	if len(got) > 0 && checkHistory(k, got[1:]) {
		t.Error("checkHistory accepted a history missing its first round")
	}
	if checkHistory(lookupKey{IP: k.IP}, got) && len(got) > 0 {
		t.Error("checkHistory accepted records for a miss key")
	}
}
