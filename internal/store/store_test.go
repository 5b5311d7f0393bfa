package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
)

func mkRecord(ip string, round int) *Record {
	return &Record{
		IP:         ipaddr.MustParseAddr(ip),
		OpenPorts:  PortHTTP,
		HTTPStatus: 200,
		Title:      "t" + ip,
		Simhash:    simhash.Hash("page " + ip),
		Body:       "<html>" + ip + "</html>",
	}
}

func TestRoundLifecycle(t *testing.T) {
	s := New("ec2")
	r, err := s.BeginRound(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginRound(1); err == nil {
		t.Error("second BeginRound succeeded with round open")
	}
	if err := s.PutBatch([]*Record{mkRecord("1.2.3.4", 0)}); err != nil {
		t.Fatal(err)
	}
	s.AddProbed(100)
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := s.EndRound(); err == nil {
		t.Error("EndRound with no open round succeeded")
	}
	if s.NumRounds() != 1 {
		t.Fatalf("NumRounds = %d", s.NumRounds())
	}
	if r.Probed != 100 {
		t.Errorf("Probed = %d", r.Probed)
	}
	rec := s.Round(0).Get(ipaddr.MustParseAddr("1.2.3.4"))
	if rec == nil || rec.Round != 0 || rec.Day != 0 {
		t.Fatalf("record = %+v", rec)
	}
	// Bodies dropped by default.
	if rec.Body != "" {
		t.Error("body not dropped at EndRound")
	}
}

// TestKeepBodies: EndRound always drops bodies, but a body a backend
// already holds (the record formats keep the column) reads back
// through the store.
func TestKeepBodies(t *testing.T) {
	b := NewMemoryBackend()
	rec := mkRecord("1.2.3.4", 0)
	if err := b.Append(RoundMeta{Records: 1}, []*Record{rec}); err != nil {
		t.Fatal(err)
	}
	s := NewWithBackend("ec2", b)
	if got := s.Round(0).Records()[0].Body; got != rec.Body {
		t.Errorf("stored body read back as %q, want %q", got, rec.Body)
	}
}

func TestDaysMustAdvance(t *testing.T) {
	s := New("ec2")
	_, _ = s.BeginRound(5)
	_ = s.EndRound()
	if _, err := s.BeginRound(5); err == nil {
		t.Error("BeginRound at same day succeeded")
	}
	if _, err := s.BeginRound(4); err == nil {
		t.Error("BeginRound at earlier day succeeded")
	}
	if _, err := s.BeginRound(6); err != nil {
		t.Errorf("BeginRound at later day failed: %v", err)
	}
}

func TestPutWithoutRound(t *testing.T) {
	s := New("ec2")
	if err := s.PutBatch([]*Record{mkRecord("1.2.3.4", 0)}); err == nil {
		t.Error("Put without open round succeeded")
	}
}

// TestPutBatchRefusesNil: a batch holding a nil record is refused
// whole and leaves the round usable; the round holds only what later
// batches put.
func TestPutBatchRefusesNil(t *testing.T) {
	s := New("ec2")
	if _, err := s.BeginRound(0); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]*Record{mkRecord("1.2.3.4", 0), nil}); err == nil {
		t.Fatal("PutBatch with a nil record succeeded")
	}
	if err := s.PutBatch([]*Record{mkRecord("5.6.7.8", 0)}); err != nil {
		t.Fatalf("PutBatch after a refused batch: %v", err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatalf("EndRound after a refused batch: %v", err)
	}
	recs := s.Round(0).Records()
	if len(recs) != 1 || recs[0].IP != ipaddr.MustParseAddr("5.6.7.8") {
		t.Errorf("round holds %d records (%v), want only 5.6.7.8", len(recs), recs)
	}
}

func TestRecordsSortedAndEach(t *testing.T) {
	s := New("ec2")
	_, _ = s.BeginRound(0)
	for _, ip := range []string{"9.9.9.9", "1.1.1.1", "5.5.5.5"} {
		_ = s.PutBatch([]*Record{mkRecord(ip, 0)})
	}
	_ = s.EndRound()
	recs := s.Round(0).Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].IP <= recs[i-1].IP {
			t.Fatal("records not sorted")
		}
	}
	n := 0
	s.Round(0).Each(func(r *Record) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("Each early stop visited %d", n)
	}
}

func TestHistory(t *testing.T) {
	s := New("ec2")
	ip := "2.3.4.5"
	for round := 0; round < 5; round++ {
		_, _ = s.BeginRound(round * 3)
		if round != 2 { // unresponsive in round 2
			_ = s.PutBatch([]*Record{mkRecord(ip, round)})
		}
		_ = s.EndRound()
	}
	hist := s.History(ipaddr.MustParseAddr(ip))
	if len(hist) != 4 {
		t.Fatalf("history length = %d, want 4", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Round <= hist[i-1].Round {
			t.Fatal("history not in round order")
		}
	}
	if got := s.History(ipaddr.MustParseAddr("8.8.8.8")); got != nil {
		t.Errorf("history of never-seen IP = %v", got)
	}
}

func TestConcurrentPut(t *testing.T) {
	s := New("ec2")
	_, _ = s.BeginRound(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ip := fmt.Sprintf("10.%d.%d.%d", w, i/256, i%256)
				if err := s.PutBatch([]*Record{mkRecord(ip, 0)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_ = s.EndRound()
	if got := s.Round(0).Len(); got != 1600 {
		t.Errorf("records = %d, want 1600", got)
	}
}

func TestRecordPredicates(t *testing.T) {
	r := &Record{}
	if r.Responsive() || r.WebOpen() || r.Available() {
		t.Error("empty record predicates true")
	}
	r.OpenPorts = PortSSH
	if !r.Responsive() || r.WebOpen() {
		t.Error("SSH-only predicates wrong")
	}
	r.OpenPorts = PortHTTPS
	if !r.WebOpen() {
		t.Error("HTTPS-only not web-open")
	}
	r.HTTPStatus = 404
	if !r.Available() {
		t.Error("404 response not available (any HTTP response counts)")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New("ec2")
	for round := 0; round < 3; round++ {
		_, _ = s.BeginRound(round * 2)
		for i := 0; i < 10; i++ {
			rec := mkRecord(fmt.Sprintf("3.3.%d.%d", round, i), round)
			rec.Links = []string{"http://x.example/a"}
			rec.Trackers = []string{"google-analytics"}
			rec.Cluster = int64(i)
			_ = s.PutBatch([]*Record{rec})
		}
		s.AddProbed(50)
		_ = s.EndRound()
	}
	loaded := reopen(t, s)
	if loaded.CloudName != "ec2" || loaded.NumRounds() != 3 {
		t.Fatalf("loaded: name=%q rounds=%d", loaded.CloudName, loaded.NumRounds())
	}
	for round := 0; round < 3; round++ {
		orig := s.Round(round)
		got := loaded.Round(round)
		if got.Day != orig.Day || got.Probed != orig.Probed || got.Len() != orig.Len() {
			t.Fatalf("round %d mismatch", round)
		}
		for i, rec := range got.Records() {
			want := orig.Records()[i]
			if rec.IP != want.IP || rec.Title != want.Title || rec.Simhash != want.Simhash ||
				rec.Cluster != want.Cluster || len(rec.Links) != len(want.Links) {
				t.Fatalf("round %d record %d mismatch: %+v vs %+v", round, i, rec, want)
			}
		}
	}
}

func TestExportJSON(t *testing.T) {
	s := New("ec2")
	_, _ = s.BeginRound(0)
	rec := mkRecord("1.2.3.4", 0)
	rec.Cluster = 7
	rec.VPC = true
	_ = s.PutBatch([]*Record{rec})
	_ = s.PutBatch([]*Record{{IP: ipaddr.MustParseAddr("1.2.3.5"), OpenPorts: PortSSH}})
	_ = s.EndRound()

	var buf bytes.Buffer
	if err := s.ExportJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 {
		t.Fatalf("records = %d", len(decoded))
	}
	first := decoded[0]
	if first["ip"] != "1.2.3.4" || first["cluster"] != float64(7) || first["vpc"] != true {
		t.Errorf("first record = %v", first)
	}
	if _, has := decoded[1]["simhash"]; has {
		t.Error("unavailable record carries a simhash")
	}
	if err := s.ExportJSON(&buf, 99); err == nil {
		t.Error("export of missing round succeeded")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := OpenFile(writeTemp(t, []byte("not gob"))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("OpenFile of garbage = %v, want ErrCorrupt", err)
	}
}

// failingRead is a backend whose every Read fails, as a colstore
// segment truncated after Open would.
type failingRead struct{ Backend }

func (failingRead) Read(int, Fields, *RoundBuf) ([]*Record, error) {
	return nil, errors.New("segment truncated")
}

// TestScanPanicReleasesLock: a backend read failure panics out of Scan
// (it breaks the integrity contract), but must not leave the store's
// lock held, or a deferred Close deadlocks on it.
func TestScanPanicReleasesLock(t *testing.T) {
	b := NewMemoryBackend()
	if err := b.Append(RoundMeta{Records: 1}, []*Record{mkRecord("1.2.3.4", 0)}); err != nil {
		t.Fatal(err)
	}
	s := NewWithBackend("ec2", failingRead{b})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Scan over a failing backend did not panic")
			}
		}()
		s.Scan(FieldPorts, func(*Round) bool { return true })
	}()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked: Scan's panic left the store locked")
	}
}

func TestRoundOutOfRange(t *testing.T) {
	s := New("x")
	if s.Round(0) != nil || s.Round(-1) != nil {
		t.Error("out-of-range Round not nil")
	}
}

func BenchmarkPut(b *testing.B) {
	s := New("bench")
	_, _ = s.BeginRound(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &Record{IP: ipaddr.Addr(i), OpenPorts: PortHTTP, HTTPStatus: 200}
		if err := s.PutBatch([]*Record{rec}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistory(b *testing.B) {
	s := New("bench")
	for round := 0; round < 50; round++ {
		_, _ = s.BeginRound(round)
		for i := 0; i < 1000; i++ {
			_ = s.PutBatch([]*Record{{IP: ipaddr.Addr(i), OpenPorts: PortHTTP}})
		}
		_ = s.EndRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.History(ipaddr.Addr(i % 1000))
	}
}

func TestMarkDegraded(t *testing.T) {
	s := New("ec2")
	if err := s.MarkDegraded(); err == nil {
		t.Error("MarkDegraded with no open round succeeded")
	}
	if _, err := s.BeginRound(0); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]*Record{mkRecord("54.0.0.1", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkDegraded(); err != nil {
		t.Fatal(err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginRound(3); err != nil {
		t.Fatal(err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
	if !s.Round(0).Degraded {
		t.Error("degraded flag lost on EndRound")
	}
	if s.Round(1).Degraded {
		t.Error("degraded flag leaked into the next round")
	}

	// The flag is part of the wire form.
	loaded := reopen(t, s)
	if !loaded.Round(0).Degraded || loaded.Round(1).Degraded {
		t.Errorf("degraded flags after OpenFile: %v, %v, want true, false",
			loaded.Round(0).Degraded, loaded.Round(1).Degraded)
	}
}

func TestDigest(t *testing.T) {
	build := func(degraded bool) *Store {
		s := New("ec2")
		s.BeginRound(0)
		s.PutBatch([]*Record{mkRecord("54.0.0.1", 0)})
		s.PutBatch([]*Record{mkRecord("54.0.0.2", 0)})
		if degraded {
			s.MarkDegraded()
		}
		s.EndRound()
		return s
	}
	a := build(false)
	d1, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("digest not stable: %s vs %s", d1, d2)
	}
	if len(d1) != 64 {
		t.Errorf("digest %q is not hex SHA-256", d1)
	}
	if db, _ := build(false).Digest(); db != d1 {
		t.Errorf("identical stores digest differently: %s vs %s", d1, db)
	}
	// Any content difference — even just the degraded flag — shows.
	if dd, _ := build(true).Digest(); dd == d1 {
		t.Error("degraded flag not covered by the digest")
	}
	other := build(false)
	other.BeginRound(3)
	other.PutBatch([]*Record{mkRecord("54.0.0.3", 1)})
	other.EndRound()
	if do, _ := other.Digest(); do == d1 {
		t.Error("extra round not covered by the digest")
	}
}

// buildSharded runs an identical two-round campaign through a store
// the way the round pipeline does — the given number of lanes, each
// handing its share of the records over in one concurrent PutBatch —
// and returns its digest.
func buildSharded(t *testing.T, lanes int) string {
	t.Helper()
	s := New("shard-test")
	for round, day := range []int{0, 3} {
		if _, err := s.BeginRound(day); err != nil {
			t.Fatal(err)
		}
		batches := make([][]*Record, lanes)
		for i := 0; i < 1600; i++ {
			ip := fmt.Sprintf("10.%d.%d.%d", round, i/200, i%200)
			batches[i%lanes] = append(batches[i%lanes], mkRecord(ip, round))
		}
		var wg sync.WaitGroup
		for _, batch := range batches {
			wg.Add(1)
			go func(batch []*Record) {
				defer wg.Done()
				if err := s.PutBatch(batch); err != nil {
					t.Error(err)
				}
			}(batch)
		}
		wg.Wait()
		if got, want := s.open.Len(), 1600; got != want {
			t.Fatalf("open round holds %d records, want %d", got, want)
		}
		if err := s.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	d, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShardedDigestIdentical is the write path's core contract: the
// same records produce byte-identical digests however many pipeline
// shards handed them over and in whatever order, because finalize
// IP-sorts the round.
func TestShardedDigestIdentical(t *testing.T) {
	base := buildSharded(t, 1)
	for _, lanes := range []int{2, 3, 8, 64} {
		if d := buildSharded(t, lanes); d != base {
			t.Errorf("%d lanes digest %s, 1 lane %s", lanes, d, base)
		}
	}
}

// TestOpenRoundAccessors: Get/Len work on an open round's handle, and
// keep working on it once the round is finalized.
func TestOpenRoundAccessors(t *testing.T) {
	s := New("ec2")
	r, err := s.BeginRound(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := mkRecord("1.2.3.4", 0)
	if err := s.PutBatch([]*Record{rec}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Get(rec.IP) != rec {
		t.Errorf("open round: len=%d get=%v", r.Len(), r.Get(rec.IP))
	}
	if r.Get(ipaddr.MustParseAddr("9.9.9.9")) != nil {
		t.Error("missing IP returned a record")
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Get(rec.IP) != rec {
		t.Errorf("finalized round: len=%d", r.Len())
	}
}

// TestAbortRound: an aborted round vanishes — the store stays
// digestable, and a fresh round can open on the same day.
func TestAbortRound(t *testing.T) {
	s := New("ec2")
	if err := s.AbortRound(); err == nil {
		t.Error("AbortRound with no open round succeeded")
	}
	if _, err := s.BeginRound(0); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]*Record{mkRecord("1.2.3.4", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
	before, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginRound(5); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]*Record{mkRecord("5.6.7.8", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AbortRound(); err != nil {
		t.Fatal(err)
	}
	after, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Error("aborted round leaked into the digest")
	}
	if s.NumRounds() != 1 {
		t.Errorf("rounds = %d, want 1", s.NumRounds())
	}
	// The same day can be retried after an abort.
	if _, err := s.BeginRound(5); err != nil {
		t.Fatalf("BeginRound after abort: %v", err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
}
