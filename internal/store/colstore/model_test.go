package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// The model-based backend test (ROADMAP 5(b)): seeded random sequences
// of Append / Rewrite / Records / History / Close+reopen run against a
// colstore directory and against store.NewMemoryBackend, which holds
// exactly the slices it was given and so is the oracle. Every answer is
// compared record by record with reflect.DeepEqual — every field, nil
// versus empty Links/Trackers, kept bodies — not just IP and round.

// randRecord draws a record with every field in play. Empty lists stay
// nil, the one shape both backends agree on (gob cannot tell nil from
// empty, and the decoder produces nil).
func randRecord(rng *rand.Rand, ip uint32, round, day int) *store.Record {
	vocab := []string{"", "", "nginx/1.4.1", "Apache/2.2.22", "text/html", "WordPress 3.5.1", "http", "https"}
	word := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			// Unique, with a shared prefix for the front coder.
			return fmt.Sprintf("http://site-%d.example.com/%x", ip, rng.Int63())
		default:
			return vocab[rng.Intn(len(vocab))]
		}
	}
	list := func() []string {
		var out []string
		for n := rng.Intn(4); n > 0; n-- {
			out = append(out, word())
		}
		return out
	}
	rec := &store.Record{
		IP:           ipaddr.Addr(ip),
		Round:        round,
		Day:          day,
		OpenPorts:    uint8(rng.Intn(8)),
		Fetched:      rng.Intn(2) == 0,
		RobotsDenied: rng.Intn(5) == 0,
		VPC:          rng.Intn(3) == 0,
		Scheme:       word(),
		HTTPStatus:   rng.Intn(600),
		FetchErr:     word(),
		ContentType:  word(),
		BodyLen:      rng.Intn(1 << 20),
		PoweredBy:    word(),
		Description:  word(),
		HeaderNames:  word(),
		Title:        word(),
		Template:     word(),
		Server:       word(),
		Keywords:     word(),
		AnalyticsID:  word(),
		Simhash:      simhash.Fingerprint{Hi: rng.Uint32(), Lo: rng.Uint64()},
		Links:        list(),
		Trackers:     list(),
		Subpages:     rng.Intn(5),
		Cluster:      rng.Int63n(1<<40) - 1<<39, // zigzag: both signs
	}
	if rng.Intn(4) == 0 { // a stored body: arbitrary bytes, not just text
		body := make([]byte, rng.Intn(300))
		rng.Read(body)
		rec.Body = string(body)
	}
	return rec
}

// randRound draws n records on strictly ascending IPs. Gaps of 1 make
// neighbours, larger gaps leave in-range misses inside and between row
// groups.
func randRound(rng *rand.Rand, n, round, day int) []*store.Record {
	recs := make([]*store.Record, n)
	ip := uint32(0x0a000000 + rng.Intn(64))
	for i := range recs {
		recs[i] = randRecord(rng, ip, round, day)
		ip += 1 + uint32(rng.Intn(3))*uint32(rng.Intn(5))
	}
	return recs
}

// allRounds names every finalized round of st, for UpdateRounds.
func allRounds(st *store.Store) []int {
	out := make([]int, st.NumRounds())
	for i := range out {
		out[i] = i
	}
	return out
}

func cloneRecs(recs []*store.Record) []*store.Record {
	out := make([]*store.Record, len(recs))
	for i, r := range recs {
		cp := *r
		cp.Links = append([]string(nil), r.Links...)
		cp.Trackers = append([]string(nil), r.Trackers...)
		out[i] = &cp
	}
	return out
}

func sameRecs(t *testing.T, what string, got, want []*store.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("%s: record %d:\n got %+v\nwant %+v", what, i, *got[i], *want[i])
		}
	}
}

// probeKeys lists the addresses worth asking a round about: both ends
// of the segment and of every row group, the addresses just outside
// them (in-range gaps between groups, or a neighbour), a gap and a hit
// inside each group, and the out-of-range addresses on either side.
func probeKeys(rng *rand.Rand, recs []*store.Record) []ipaddr.Addr {
	if len(recs) == 0 {
		return []ipaddr.Addr{0x0a000000}
	}
	keys := []ipaddr.Addr{recs[0].IP - 1, recs[len(recs)-1].IP + 1, 0, 0xffffffff}
	for start := 0; start < len(recs); start += groupRows {
		end := min(start+groupRows, len(recs))
		first, last, mid := recs[start].IP, recs[end-1].IP, recs[start+rng.Intn(end-start)].IP
		keys = append(keys, first, first+1, last, last+1, last-1, mid, mid+1)
	}
	return keys
}

// TestModelAgainstMemoryBackend replays every seed's sequence twice: at
// GOMAXPROCS 1, where History and the scan decode run inline, and at 4,
// where they fan out over the candidate segments and the row groups.
func TestModelAgainstMemoryBackend(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					runModel(t, seed)
				})
			}
		})
	}
}

// runModel drives one seeded sequence against both backends.
func runModel(t *testing.T, seed int64) {
	// Round sizes around the row-group boundary come first in every
	// sequence; later rounds draw random sizes.
	sizes := []int{groupRows, 0, 1, groupRows - 1, groupRows + 1, 2*groupRows + 7}
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	col := openBackend(t, dir, Options{CloudName: "model"})
	mem := store.NewMemoryBackend()

	checkRecords := func(i int) {
		got, err := col.Records(i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := mem.Read(i, store.AllFields)
		sameRecs(t, fmt.Sprintf("Records(%d)", i), got, want)
		gm, err := col.Meta(i)
		wm, _ := mem.Meta(i)
		if err != nil || gm != wm {
			t.Fatalf("Meta(%d) = %+v (%v), oracle %+v", i, gm, err, wm)
		}
	}
	checkHistory := func(ip ipaddr.Addr) {
		got, err := col.History(ip)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := mem.History(ip)
		if (got == nil) != (want == nil) {
			t.Fatalf("History(%s) = %v, oracle %v", ip, got, want)
		}
		sameRecs(t, fmt.Sprintf("History(%s)", ip), got, want)
	}

	for step := 0; step < 60; step++ {
		n := mem.NumRounds()
		switch op := rng.Intn(10); {
		case n < len(sizes) || op == 0: // Append
			size := rng.Intn(3 * groupRows)
			if n < len(sizes) {
				size = sizes[n]
			}
			recs := randRound(rng, size, n, 3*n)
			meta := store.RoundMeta{Index: n, Day: 3 * n, Probed: rng.Int63n(1 << 30), Degraded: rng.Intn(4) == 0, Records: size}
			if err := col.Append(meta, cloneRecs(recs)); err != nil {
				t.Fatal(err)
			}
			if err := mem.Append(meta, recs); err != nil {
				t.Fatal(err)
			}
		case op == 1: // Rewrite: the analysis joins' write-back
			i := rng.Intn(n)
			old, _ := mem.Read(i, store.AllFields)
			recs := cloneRecs(old)
			for _, rec := range recs {
				if rng.Intn(3) == 0 {
					rec.VPC = !rec.VPC
					rec.Cluster = rng.Int63n(5000)
				}
			}
			meta, _ := mem.Meta(i)
			if err := col.Rewrite(i, meta, cloneRecs(recs)); err != nil {
				t.Fatal(err)
			}
			if err := mem.Rewrite(i, meta, recs); err != nil {
				t.Fatal(err)
			}
		case op == 2: // Close + reopen: the footers are re-read
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			col = openBackend(t, dir, Options{})
			if col.NumRounds() != n || col.CloudName() != "model" {
				t.Fatalf("reopened %d rounds of %q, want %d of model", col.NumRounds(), col.CloudName(), n)
			}
		case op <= 4: // Records
			checkRecords(rng.Intn(n))
		default: // History, keyed off a random round's shape
			recs, _ := mem.Read(rng.Intn(n), store.AllFields)
			for _, ip := range probeKeys(rng, recs) {
				checkHistory(ip)
			}
		}
	}
	// Whatever the sequence did, every round and every stored
	// address answers like the oracle at the end.
	for i := 0; i < mem.NumRounds(); i++ {
		checkRecords(i)
		recs, _ := mem.Read(i, store.AllFields)
		for _, ip := range probeKeys(rng, recs) {
			checkHistory(ip)
		}
	}
}

// TestConcurrentReadersAndWriter runs History and EachRound readers
// against an UpdateRounds writer through the Store frontend — the
// sharing the backend's reader/writer lock exists for. It is a -race
// test first; the readers also check what they can without touching
// the fields the writer mutates.
func TestConcurrentReadersAndWriter(t *testing.T) {
	const rounds, perRound, writes = 4, 2*groupRows + 50, 6
	col := store.NewWithBackend("c", openBackend(t, t.TempDir(), Options{CloudName: "c"}))
	mem := store.New("c")
	buildCampaign(t, col, rounds, perRound)
	buildCampaign(t, mem, rounds, perRound)

	relabel := func(pass int64) func(*store.Round) bool {
		return func(r *store.Round) bool {
			r.Each(func(rec *store.Record) bool {
				rec.Cluster = pass*1000 + int64(rec.IP%7)
				return true
			})
			return r.Len() > 0
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if g == 0 {
					seen, next := 0, 0
					col.EachRound(func(r *store.Round) bool {
						if r.Index != next {
							t.Errorf("EachRound visit %d has index %d", next, r.Index)
						}
						next++
						seen += r.Len()
						return true
					})
					// buildCampaign closes with one empty round.
					if seen != rounds*perRound || next != rounds+1 {
						t.Errorf("EachRound saw %d records in %d rounds, want %d in %d", seen, next, rounds*perRound, rounds+1)
						return
					}
					continue
				}
				// buildCampaign puts slot k at base + 11k in every round.
				slot := (i*31 + g*97) % (perRound + 20)
				ip := ipaddr.Addr(0x0a000000 + slot*11)
				h := col.History(ip)
				want := rounds
				if slot >= perRound {
					want = 0
				}
				if len(h) != want {
					t.Errorf("History(%s) returned %d records, want %d", ip, len(h), want)
					return
				}
				for r, rec := range h {
					if rec.IP != ip || rec.Round != r {
						t.Errorf("History(%s)[%d] is %s round %d", ip, r, rec.IP, rec.Round)
						return
					}
				}
			}
		}(g)
	}
	for pass := int64(1); pass <= writes; pass++ {
		if err := col.UpdateRounds(allRounds(col), relabel(pass)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if err := mem.UpdateRounds(allRounds(mem), relabel(writes)); err != nil {
		t.Fatal(err)
	}
	want, err := mem.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := col.Digest(); err != nil || got != want {
		t.Fatalf("digest after concurrent reads %s (err %v), memory %s", got, err, want)
	}
}
