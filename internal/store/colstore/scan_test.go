package colstore

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
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
// to fn, its records equal a fresh read, on the requested fields and
// zero on the rest, even once the read-ahead of round i+1 has finished.
// Each fold waits for that read before it compares, so a read-ahead
// that decoded into the buffer fn holds fails here, and one that never
// overlaps the fold times out. The scans run whole, narrowed, then
// whole again, so each decodes into buffers the one before filled with
// other fields; then three run at once, which must not share a buffer.
func TestScanWindow(t *testing.T) {
	const rounds = 7
	st := windowStore(t, rounds)
	narrow := store.FieldPorts | store.FieldTitle | store.FieldCluster
	for _, fields := range []store.Fields{store.AllFields, narrow, store.AllFields} {
		checkWindow(t, st, fields, rounds, 1, st.Backend().(*Backend).ReadStats().Scans)
	}
	concurrent := []store.Fields{store.AllFields, narrow, store.FieldStatus}
	base := st.Backend().(*Backend).ReadStats().Scans
	var wg sync.WaitGroup
	for _, fields := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkWindow(t, st, fields, rounds, len(concurrent), base)
		}()
	}
	wg.Wait()
}

// checkWindow runs one of scans concurrent Scans of fields over st,
// whose backend had finished base decodes before they started. At round
// i it waits until every Scan has read rounds 0..i+1 and made its fresh
// reads of rounds 0..i-1: no Scan reads round i+2 or makes a fresh read
// of round i before one of them has seen that many decodes, so the
// count is reached exactly when they have. Then it checks round i
// against a fresh read. It reports through t.Errorf, so it may run on
// any goroutine.
func checkWindow(t *testing.T, st *store.Store, fields store.Fields, rounds, scans int, base int64) {
	b := st.Backend().(*Backend)
	seen := 0
	st.Scan(fields, func(cur *store.Round) bool {
		i := cur.Index
		want := base + int64(scans*(min(i+2, rounds)+i))
		for deadline := time.Now().Add(10 * time.Second); b.ReadStats().Scans < want; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Errorf("fields %b: at round %d, %d decodes after 10 s, want %d: round %d was not read ahead", fields, i, b.ReadStats().Scans-base, want-base, i+1)
				return false
			}
		}
		fresh, got := st.Round(i).Records(), cur.Records()
		if len(got) != len(fresh) {
			t.Errorf("fields %b: round %d holds %d records, want %d", fields, i, len(got), len(fresh))
			return false
		}
		for k := range fresh {
			if m := masked(fresh[k], fields); !reflect.DeepEqual(*got[k], m) {
				t.Errorf("fields %b: round %d record %d, read ahead of round %d\n got %+v\nwant %+v", fields, i, k, i+1, *got[k], m)
				return false
			}
		}
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
