package main

import (
	"fmt"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// The synthetic campaign's shape. 12 segments exceed colstore's
// 2-round decode LRU, so every full scan pass and every cold History
// hit decodes; the stride leaves in-range gaps for miss lookups.
const (
	synthRounds   = 12
	synthPool     = 8000
	synthBase     = 0x0a000000 // 10.0.0.0
	synthStride   = 13         // pool slot i sits at base + 13*i + jitter, jitter in [0,6]
	synthDayStep  = 3
	synthAbsentIn = 7 // a slot is absent from about one round in seven
)

// mix is the splitmix64 finalizer over a seed and two coordinates; every
// generator decision is a pure function of it, so a seed fixes the
// campaign and the key streams.
func mix(seed int64, a, b uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^ b*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// synthCampaign is the store workload's input: per-round records sorted
// by IP, and enough bookkeeping to say which rounds hold which IP.
type synthCampaign struct {
	seed    int64
	pool    []ipaddr.Addr     // ascending
	rounds  [][]*store.Record // rounds[r] ascending by IP
	records int64
}

func synthIP(seed int64, slot int) ipaddr.Addr {
	return ipaddr.Addr(synthBase + uint32(slot)*synthStride + uint32(mix(seed, uint64(slot), 1)%7))
}

func synthPresent(seed int64, slot, round int) bool {
	return mix(seed, uint64(slot), uint64(round)+2)%synthAbsentIn != 0
}

// synthRecord follows the experiments.benchRecord recipe: a small
// server/template vocabulary (dictionary-friendly), per-IP titles and
// analytics IDs (not), sparse link and tracker lists.
func synthRecord(seed int64, slot, round int) *store.Record {
	servers := []string{"Apache/2.2.22", "nginx/1.4.1", "Microsoft-IIS/7.5", "lighttpd/1.4.31"}
	templates := []string{"", "WordPress 3.5.1", "Drupal 7", ""}
	h := mix(seed, uint64(slot), 0)
	rec := &store.Record{
		IP:          synthIP(seed, slot),
		OpenPorts:   store.PortHTTP,
		Fetched:     true,
		Scheme:      "http",
		HTTPStatus:  200,
		ContentType: "text/html",
		BodyLen:     2048 + int(h%512),
		Server:      servers[h%4],
		Template:    templates[(h>>2)%4],
		Title:       fmt.Sprintf("site-%d-%d", slot, h%9973),
		HeaderNames: "Content-Type,Date,Server",
		Simhash:     simhash.Fingerprint{Hi: uint32(h >> 32), Lo: h*0x9e3779b97f4a7c15 + uint64(round)},
		Subpages:    int(h>>4) % 4,
	}
	if (h>>8)%5 == 0 {
		rec.Trackers = []string{"google-analytics.com"}
		rec.AnalyticsID = fmt.Sprintf("UA-%d-1", h%1000)
	}
	if (h>>12)%3 == 0 {
		rec.Links = []string{"cdn.example.com", fmt.Sprintf("img-%d.example.com", h%50)}
	}
	return rec
}

func genCampaign(seed int64, rounds, pool int) *synthCampaign {
	c := &synthCampaign{seed: seed, pool: make([]ipaddr.Addr, pool), rounds: make([][]*store.Record, rounds)}
	for slot := range c.pool {
		c.pool[slot] = synthIP(seed, slot)
	}
	for r := range c.rounds {
		recs := make([]*store.Record, 0, pool)
		for slot := 0; slot < pool; slot++ {
			if synthPresent(seed, slot, r) {
				recs = append(recs, synthRecord(seed, slot, r))
			}
		}
		c.rounds[r] = recs
		c.records += int64(len(recs))
	}
	return c
}

// roundsOf lists the rounds the generator placed a pool slot in: the
// exact answer a History hit must return.
func (c *synthCampaign) roundsOf(slot int) []int {
	var out []int
	for r := range c.rounds {
		if synthPresent(c.seed, slot, r) {
			out = append(out, r)
		}
	}
	return out
}

// lookupKey is one History probe and the rounds it must come back with
// (nil for a miss).
type lookupKey struct {
	IP     ipaddr.Addr
	Rounds []int
}

// hitKeys draws n pool slots uniformly (stream id keeps the hit, hot
// and miss streams independent).
func (c *synthCampaign) hitKeys(n int, stream uint64) []lookupKey {
	out := make([]lookupKey, n)
	for i := range out {
		slot := int(mix(c.seed, uint64(i), stream) % uint64(len(c.pool)))
		out[i] = lookupKey{IP: c.pool[slot], Rounds: c.roundsOf(slot)}
	}
	return out
}

// inRangeMissKeys draws addresses inside [min,max] of every segment
// that no round holds: consecutive slots are at least 7 apart, so
// slot+1..slot+6 is always a gap.
func (c *synthCampaign) inRangeMissKeys(n int) []lookupKey {
	out := make([]lookupKey, n)
	for i := range out {
		h := mix(c.seed, uint64(i), 101)
		slot := int(h % uint64(len(c.pool)-1))
		out[i] = lookupKey{IP: c.pool[slot] + 1 + ipaddr.Addr((h>>32)%6)}
	}
	return out
}

// outOfRangeMissKeys draws addresses below the pool's first IP or above
// its last, which the segment footers' bounds reject without a read.
func (c *synthCampaign) outOfRangeMissKeys(n int) []lookupKey {
	out := make([]lookupKey, n)
	lo, hi := c.pool[0], c.pool[len(c.pool)-1]
	for i := range out {
		h := mix(c.seed, uint64(i), 202)
		if h&1 == 0 {
			out[i] = lookupKey{IP: lo - 1 - ipaddr.Addr((h>>8)%4096)}
		} else {
			out[i] = lookupKey{IP: hi + 1 + ipaddr.Addr((h>>8)%4096)}
		}
	}
	return out
}

// ingest writes the campaign through a store's round lifecycle, the way
// the coordinator merges shard submissions.
func (c *synthCampaign) ingest(st *store.Store) error {
	for r, recs := range c.rounds {
		if _, err := st.BeginRound(r * synthDayStep); err != nil {
			return err
		}
		if err := st.PutBatch(recs); err != nil {
			return err
		}
		st.AddProbed(int64(len(c.pool)))
		if err := st.EndRound(); err != nil {
			return err
		}
	}
	return nil
}

// checkHistory reports whether a History answer is exactly the rounds
// the generator placed the key in.
func checkHistory(k lookupKey, got []*store.Record) bool {
	if len(got) != len(k.Rounds) {
		return false
	}
	for i, rec := range got {
		if rec.IP != k.IP || rec.Round != k.Rounds[i] {
			return false
		}
	}
	return true
}
