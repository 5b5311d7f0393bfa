package colstore

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// windowStore writes rounds of drifting size onto a fresh colstore,
// full records in even rounds and sparse ones in odd, so each scan
// buffer is regrown, shrunk and handed a round denser or sparser than
// the one it held before.
func windowStore(t testing.TB, rounds int) *store.Store {
	t.Helper()
	b := openBackend(t, t.TempDir(), Options{CloudName: "c"})
	for r := 0; r < rounds; r++ {
		recs := make([]*store.Record, 700+250*(r%3))
		for i := range recs {
			ip := uint32(0x0a000000 + i*13 + r)
			if r%2 == 0 {
				recs[i] = fullRecord(ip, r, 2*r)
			} else {
				recs[i] = &store.Record{IP: ipaddr.Addr(ip), Round: r, Day: 2 * r, OpenPorts: store.PortHTTP, HTTPStatus: 404}
			}
		}
		if err := b.Append(store.RoundMeta{Index: r, Day: 2 * r, Records: len(recs)}, recs); err != nil {
			t.Fatal(err)
		}
	}
	return store.NewWithBackend("c", b)
}

// TestScanWindow holds Scan to its contract: while round i is handed
// to fn, the round before it and both rounds' records still equal a
// fresh read, on the requested fields and zero on the rest. The scans
// run whole, narrowed, then whole again, so each decodes into buffers
// the one before filled with other fields; then three run at once,
// which must not share a buffer.
func TestScanWindow(t *testing.T) {
	const rounds = 7
	st := windowStore(t, rounds)
	narrow := store.FieldPorts | store.FieldTitle | store.FieldCluster
	for _, fields := range []store.Fields{store.AllFields, narrow, store.AllFields} {
		checkWindow(t, st, fields, rounds)
	}
	var wg sync.WaitGroup
	for _, fields := range []store.Fields{store.AllFields, narrow, store.FieldStatus} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkWindow(t, st, fields, rounds)
		}()
	}
	wg.Wait()
}

// checkWindow runs one Scan of fields over st, checking the two-round
// window at every step; it reports through t.Errorf, so it may run on
// any goroutine.
func checkWindow(t *testing.T, st *store.Store, fields store.Fields, rounds int) {
	var prev *store.Round
	seen := 0
	st.Scan(fields, func(cur *store.Round) bool {
		for _, r := range []*store.Round{prev, cur} {
			if r == nil {
				continue
			}
			want, got := st.Round(r.Index).Records(), r.Records()
			if len(got) != len(want) {
				t.Errorf("fields %b, at round %d: round %d holds %d records, want %d", fields, cur.Index, r.Index, len(got), len(want))
				return false
			}
			for k := range want {
				if m := masked(want[k], fields); !reflect.DeepEqual(*got[k], m) {
					t.Errorf("fields %b, at round %d: round %d record %d\n got %+v\nwant %+v", fields, cur.Index, r.Index, k, *got[k], m)
					return false
				}
			}
		}
		prev = cur
		seen++
		return true
	})
	if seen != rounds && !t.Failed() {
		t.Errorf("fields %b: Scan visited %d rounds, want %d", fields, seen, rounds)
	}
}

// TestScanReusesBuffers bounds what a Scan allocates once an earlier
// one has sized its buffers: less, over eight rounds, than one round's
// record slab. A scan that allocated its records afresh would spend
// that in every round.
func TestScanReusesBuffers(t *testing.T) {
	const rounds, per = 8, 2048
	b := openBackend(t, t.TempDir(), Options{CloudName: "c"})
	for r := 0; r < rounds; r++ {
		recs := make([]*store.Record, per)
		for i := range recs {
			recs[i] = &store.Record{IP: ipaddr.Addr(0x0a000000 + i*7), Round: r, Day: r, OpenPorts: store.PortHTTP, HTTPStatus: 200 + i%3}
		}
		if err := b.Append(store.RoundMeta{Index: r, Day: r, Records: per}, recs); err != nil {
			t.Fatal(err)
		}
	}
	st := store.NewWithBackend("c", b)
	scan := func() (records int) {
		st.Scan(store.FieldPorts|store.FieldStatus, func(r *store.Round) bool {
			records += r.Len()
			return true
		})
		return records
	}
	scan()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := scan()
	runtime.ReadMemStats(&after)
	slab := uint64(per) * uint64(unsafe.Sizeof(store.Record{}))
	t.Logf("second scan of %d records allocated %d B; one round's slab is %d B", n, after.TotalAlloc-before.TotalAlloc, slab)
	if n != rounds*per {
		t.Fatalf("scan saw %d records, want %d", n, rounds*per)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= slab {
		t.Errorf("second scan allocated %d B, not under one round's %d B slab", got, slab)
	}
}
