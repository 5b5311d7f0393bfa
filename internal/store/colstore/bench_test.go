package colstore

import (
	"sync/atomic"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// The layer benchmarks behind bench/'s store-mixed and analyse numbers:
// twelve rounds on the same 8 192 addresses (16 row groups a segment),
// so a hit reads every segment, as a cold History hit there does.
const benchRounds, benchPerRound = 12, 8192

// benchHit is the i-th lookup's address, spread over the round.
func benchHit(i int) ipaddr.Addr {
	return ipaddr.Addr(0x0a000000 + (i*7919%benchPerRound)*11)
}

func BenchmarkHistory(b *testing.B) {
	dir := b.TempDir()
	writeRounds(b, dir, benchRounds, benchPerRound)
	col := openBackend(b, dir, Options{})
	lookup := func(b *testing.B, ip ipaddr.Addr, want int) {
		if h, err := col.History(ip); err != nil || len(h) != want {
			b.Fatalf("History(%s) = %d records (%v), want %d", ip, len(h), err, want)
		}
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lookup(b, benchHit(i), benchRounds)
		}
	})
	b.Run("miss-inrange", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lookup(b, benchHit(i)+1, 0)
		}
	})
	// N readers at once, one per GOMAXPROCS (b.RunParallel).
	b.Run("hit-readers", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				ip := benchHit(int(next.Add(1)))
				if h, err := col.History(ip); err != nil || len(h) != benchRounds {
					b.Errorf("History(%s) = %d records (%v), want %d", ip, len(h), err, benchRounds)
					return
				}
			}
		})
	})
}

func BenchmarkRecords(b *testing.B) {
	dir := b.TempDir()
	writeRounds(b, dir, benchRounds, benchPerRound)
	col := openBackend(b, dir, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err := col.Records(i % benchRounds); err != nil || len(recs) != benchPerRound {
			b.Fatalf("Records = %d records (%v), want %d", len(recs), err, benchPerRound)
		}
	}
}

// BenchmarkScan is one analysis fold's read: a Store.Scan of the
// status columns (Churn's and Usage's set) over all twelve rounds, each
// pass after the first decoding into the buffers the one before left.
func BenchmarkScan(b *testing.B) {
	dir := b.TempDir()
	writeRounds(b, dir, benchRounds, benchPerRound)
	st := store.NewWithBackend("c", openBackend(b, dir, Options{}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		st.Scan(store.FieldPorts|store.FieldStatus|store.FieldCluster, func(r *store.Round) bool {
			n += r.Len()
			return true
		})
		if n != benchRounds*benchPerRound {
			b.Fatalf("Scan saw %d records, want %d", n, benchRounds*benchPerRound)
		}
	}
}
