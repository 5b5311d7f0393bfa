package colstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// --- compressor ---

func TestCompressRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte{},
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcd"),
		[]byte(strings.Repeat("a", 1000)),
		[]byte(strings.Repeat("abcdefgh", 500)),
		[]byte("the quick brown fox jumps over the lazy dog, the quick brown fox"),
		bytes.Repeat([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}, 333),
	}
	// A deterministic pseudo-random blob (no math/rand: this package is
	// digest-feeding and lint-checked for determinism, tests included).
	blob := make([]byte, 1<<16)
	x := uint32(2463534242)
	for i := range blob {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		blob[i] = byte(x)
	}
	cases = append(cases, blob)
	// Long match far beyond maxOffset: prefix repeats 70 KiB apart.
	far := append(append([]byte{}, blob...), []byte("hello world hello world hello world")...)
	far = append(far, blob[:64]...)
	cases = append(cases, far)

	for i, src := range cases {
		comp := compress(nil, src)
		got, err := decompress(nil, comp, len(src))
		if err != nil {
			t.Fatalf("case %d: decompress: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip mismatch (%d bytes in, %d out)", i, len(src), len(got))
		}
		// Determinism: same input, same bytes.
		if again := compress(nil, src); !bytes.Equal(again, comp) {
			t.Fatalf("case %d: compression nondeterministic", i)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	good := compress(nil, []byte(strings.Repeat("columnar segments ", 64)))
	cases := map[string][]byte{
		"truncated":        good[:len(good)/2],
		"literal overrun":  {0x7f, 'a', 'b'},
		"copy overrun":     {0x80},
		"zero offset":      {0x00, 'a', 0x80, 0x00, 0x00},
		"offset too large": {0x00, 'a', 0x80, 0xff, 0xff},
	}
	for name, src := range cases {
		if _, err := decompress(nil, src, 1<<20); err == nil {
			t.Errorf("%s: decompress succeeded", name)
		}
	}
	// Wrong claimed length on valid input must also fail.
	if _, err := decompress(nil, good, 3); err == nil {
		t.Error("wrong rawLen accepted")
	}
}

// --- segment round trip ---

// fullRecord populates every Record field deterministically; the
// round-trip test additionally proves by reflection that nothing is
// left zero, so a future Record field that lacks a column breaks the
// build here instead of silently corrupting digests.
func fullRecord(ip uint32, round, day int) *store.Record {
	return &store.Record{
		IP:           ipaddr.Addr(ip),
		Round:        round,
		Day:          day,
		OpenPorts:    store.PortSSH | store.PortHTTP | store.PortHTTPS,
		Fetched:      true,
		RobotsDenied: ip%7 == 0,
		VPC:          ip%3 == 0,
		Scheme:       "https",
		HTTPStatus:   200 + int(ip%103),
		FetchErr:     fmt.Sprintf("timeout-%d", ip%5),
		ContentType:  "text/html; charset=utf-8",
		BodyLen:      int(ip % 9000),
		Body:         fmt.Sprintf("<html><body>host %d round %d</body></html>", ip, round),
		PoweredBy:    "PHP/5.3",
		Description:  fmt.Sprintf("deployment %d on day %d", ip, day),
		HeaderNames:  "content-type#date#server#x-powered-by",
		Title:        fmt.Sprintf("Site %d", ip),
		Template:     "WordPress 3.9",
		Server:       "Apache/2.2.22 (Ubuntu)",
		Keywords:     "cloud,hosting,iaas",
		AnalyticsID:  fmt.Sprintf("UA-%d-1", ip%997),
		Simhash:      simhash.Hash(fmt.Sprintf("page %d/%d", ip, round)),
		Links:        []string{fmt.Sprintf("http://example-%d.com/", ip), "http://static.example.com/app.js"},
		Trackers:     []string{"google-analytics", "doubleclick"},
		Subpages:     1 + int(ip%4),
		Cluster:      int64(1 + ip%11),
	}
}

// roundTripFixture is the pinned round: every field populated.
func roundTripFixture() (store.RoundMeta, []*store.Record) {
	recs := make([]*store.Record, 257)
	for i := range recs {
		recs[i] = fullRecord(uint32(0x0a000000+i*37), 4, 12)
	}
	return store.RoundMeta{Index: 4, Day: 12, Probed: 5000, Degraded: true, Records: len(recs)}, recs
}

// sparseFixture is mostly-zero records, the common case after EndRound
// drops bodies.
func sparseFixture() (store.RoundMeta, []*store.Record) {
	return store.RoundMeta{Index: 0, Records: 2}, []*store.Record{
		{IP: 1, Round: 0, Day: 0, OpenPorts: store.PortHTTP},
		{IP: 9, Round: 0, Day: 0, HTTPStatus: 200, Title: "x"},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	meta, recs := roundTripFixture()
	n := len(recs)
	// Prove the fixture exercises every field (21 divides the IP, so
	// the modular booleans are both set).
	v := reflect.ValueOf(*fullRecord(21_000_000, 4, 12))
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fixture leaves Record.%s zero; extend fullRecord (and the segment columns)",
				v.Type().Field(i).Name)
		}
	}
	data, err := encodeSegment(meta, "ec2", recs)
	if err != nil {
		t.Fatal(err)
	}
	// Format pin: the segment encoding is hand-rolled (no gob, no
	// process-global state), so this fixed round has one byte image. A
	// deliberate format change re-pins both values.
	const pinLen, pinSHA = 12600, "5a52f7829ca23a6d2be228128b6f0ee351dc86fd8a85b6bdd19972b3f381b171"
	if sum := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != pinLen || sum != pinSHA {
		t.Errorf("segment image is %d bytes, sha256 %s; the committed format pin is %d bytes, %s",
			len(data), sum, pinLen, pinSHA)
	}
	foot, err := parseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	if foot.Meta != meta || foot.CloudName != "ec2" {
		t.Fatalf("footer = %+v", foot)
	}
	if foot.MinIP != uint32(recs[0].IP) || foot.MaxIP != uint32(recs[n-1].IP) {
		t.Fatalf("IP bounds [%d,%d], want [%d,%d]", foot.MinIP, foot.MaxIP, recs[0].IP, recs[n-1].IP)
	}
	got, err := decodeSegment(data, foot, store.AllFields, new(readStats), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d records, want %d", len(got), n)
	}
	for i := range recs {
		if !reflect.DeepEqual(*got[i], *recs[i]) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, *got[i], *recs[i])
		}
	}
}

func TestSegmentEmptyAndSparseFields(t *testing.T) {
	// Mostly-zero records and an empty round must both round-trip
	// exactly — including nil vs. empty slices, which gob encodes
	// identically.
	meta, recs := sparseFixture()
	data, err := encodeSegment(meta, "c", recs)
	if err != nil {
		t.Fatal(err)
	}
	foot, err := parseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSegment(data, foot, store.AllFields, new(readStats), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !reflect.DeepEqual(*got[i], *recs[i]) {
			t.Fatalf("sparse record %d:\n got %+v\nwant %+v", i, *got[i], *recs[i])
		}
		if got[i].Links != nil || got[i].Trackers != nil {
			t.Fatalf("empty slices decoded non-nil: %+v", *got[i])
		}
	}

	empty, err := encodeSegment(store.RoundMeta{Index: 1}, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	efoot, err := parseFooter(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeSegment(empty, efoot, store.AllFields, new(readStats), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty round: %d records, err %v", len(got), err)
	}
}

func TestEncodeRejectsUnsorted(t *testing.T) {
	recs := []*store.Record{{IP: 9}, {IP: 1}}
	if _, err := encodeSegment(store.RoundMeta{Records: 2}, "c", recs); err == nil {
		t.Error("unsorted records accepted")
	}
	if _, err := encodeSegment(store.RoundMeta{Records: 1}, "c", recs); err == nil {
		t.Error("record-count mismatch accepted")
	}
}

// --- backend ---

// buildCampaign drives identical puts into a store; shared by the
// identity tests.
func buildCampaign(t *testing.T, s *store.Store, rounds, perRound int) {
	t.Helper()
	buildCampaignLanes(t, s, rounds, perRound, 0)
}

// buildCampaignLanes is buildCampaign written the way the round
// pipeline writes: each round's records dealt over the given number of
// lanes, every lane handing its share over in one concurrent PutBatch.
// lanes == 0 puts record by record.
func buildCampaignLanes(t *testing.T, s *store.Store, rounds, perRound, lanes int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		if _, err := s.BeginRound(r * 3); err != nil {
			t.Fatal(err)
		}
		batches := make([][]*store.Record, lanes)
		for i := 0; i < perRound; i++ {
			rec := fullRecord(uint32(0x0a000000+i*11), r, r*3)
			if lanes > 0 {
				batches[i%lanes] = append(batches[i%lanes], rec)
			} else if err := s.PutBatch([]*store.Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, batch := range batches {
			wg.Add(1)
			go func(batch []*store.Record) {
				defer wg.Done()
				if err := s.PutBatch(batch); err != nil {
					t.Error(err)
				}
			}(batch)
		}
		wg.Wait()
		s.AddProbed(int64(perRound) * 2)
		if err := s.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	// One empty round: MinIP/MaxIP degenerate, History must skip it.
	if _, err := s.BeginRound(rounds * 3); err != nil {
		t.Fatal(err)
	}
	if err := s.EndRound(); err != nil {
		t.Fatal(err)
	}
}

// openBackend opens dir and closes the backend when the test ends (a
// test that closes it first is fine: Close is idempotent).
func openBackend(t testing.TB, dir string, opts Options) *Backend {
	t.Helper()
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := b.Close(); err != nil {
			t.Error(err)
		}
	})
	return b
}

// TestDigestIdentity is the tentpole contract: the same campaign
// through the in-memory and columnar backends yields byte-identical
// Save output (hence digests), History, and ExportJSON — and the
// columnar digest survives a close/reopen from disk.
func TestDigestIdentity(t *testing.T) {
	dir := t.TempDir()
	mem := store.New("ec2")
	col := store.NewWithBackend("ec2", openBackend(t, dir, Options{CloudName: "ec2"}))
	buildCampaign(t, mem, 3, 50)
	buildCampaign(t, col, 3, 50)

	memDigest, err := mem.Digest()
	if err != nil {
		t.Fatal(err)
	}
	colDigest, err := col.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if memDigest != colDigest {
		t.Fatalf("digest diverges: mem %s, colstore %s", memDigest, colDigest)
	}

	ip := ipaddr.Addr(0x0a000000 + 7*11)
	if got, want := mem.History(ip), col.History(ip); !reflect.DeepEqual(derefAll(got), derefAll(want)) {
		t.Fatalf("History diverges:\n mem %+v\n col %+v", got, want)
	}
	if h := col.History(ipaddr.MustParseAddr("9.9.9.9")); h != nil {
		t.Fatalf("History of unseen IP = %+v", h)
	}

	var memJSON, colJSON bytes.Buffer
	if err := mem.ExportJSON(&memJSON, 1); err != nil {
		t.Fatal(err)
	}
	if err := col.ExportJSON(&colJSON, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memJSON.Bytes(), colJSON.Bytes()) {
		t.Fatal("ExportJSON diverges between backends")
	}

	// UpdateRounds write-backs must persist identically through Rewrite.
	mutate := func(r *store.Round) bool {
		changed := false
		r.Each(func(rec *store.Record) bool {
			if rec.IP%2 == 0 {
				rec.VPC = false
				rec.Cluster = 99
				changed = true
			}
			return true
		})
		return changed
	}
	if err := mem.UpdateRounds(allRounds(mem), mutate); err != nil {
		t.Fatal(err)
	}
	if err := col.UpdateRounds(allRounds(col), mutate); err != nil {
		t.Fatal(err)
	}

	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen from disk: the rewritten state must match the in-memory
	// store byte for byte.
	reopened := store.NewWithBackend("ec2", openBackend(t, dir, Options{}))
	memDigest2, err := mem.Digest()
	if err != nil {
		t.Fatal(err)
	}
	reDigest, err := reopened.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if memDigest2 != reDigest {
		t.Fatalf("post-UpdateRounds digest diverges after reopen: mem %s, colstore %s", memDigest2, reDigest)
	}
	if memDigest2 == memDigest {
		t.Fatal("UpdateRounds changed nothing; the rewrite path was not exercised")
	}
}

func derefAll(recs []*store.Record) []store.Record {
	out := make([]store.Record, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out
}

// TestShardedDigestIdentity: the columnar backend fed by any number
// of pipeline shards — one concurrent PutBatch each — matches the
// in-memory digest of the same campaign put record by record.
func TestShardedDigestIdentity(t *testing.T) {
	mem := store.New("ec2")
	buildCampaign(t, mem, 2, 64)
	base, err := mem.Digest()
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, 2, 4} {
		col := store.NewWithBackend("ec2", openBackend(t, t.TempDir(), Options{CloudName: "ec2"}))
		buildCampaignLanes(t, col, 2, 64, lanes)
		if d, err := col.Digest(); err != nil || d != base {
			t.Errorf("%d lanes: colstore digest %s (err %v), memory %s", lanes, d, err, base)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s := store.NewWithBackend("ec2", openBackend(t, dir, Options{CloudName: "ec2"}))
		buildCampaign(t, s, 2, 20)
		return dir
	}

	t.Run("truncated segment", func(t *testing.T) {
		dir := build(t)
		path := filepath.Join(dir, segName(1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A torn write: the tail of the file never made it to disk.
		if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, Options{})
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})

	t.Run("flipped byte", func(t *testing.T) {
		dir := build(t)
		path := filepath.Join(dir, segName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})

	t.Run("missing segment", func(t *testing.T) {
		dir := build(t)
		if err := os.Remove(filepath.Join(dir, segName(0))); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})

	t.Run("leftover tmp ignored", func(t *testing.T) {
		dir := build(t)
		// An interrupted atomic write leaves a .tmp sibling; the
		// committed directory state is still fully valid.
		tmp := filepath.Join(dir, segName(3)+".tmp")
		if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		b := openBackend(t, dir, Options{})
		if b.NumRounds() != 3 {
			t.Fatalf("NumRounds = %d, want 3", b.NumRounds())
		}
	})

	t.Run("cloud name mismatch", func(t *testing.T) {
		dir := build(t)
		if _, err := Open(dir, Options{CloudName: "azure"}); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
		if b := openBackend(t, dir, Options{}); b.CloudName() != "ec2" {
			t.Fatalf("CloudName = %q", b.CloudName())
		}
	})
}

func TestAppendValidation(t *testing.T) {
	b := openBackend(t, t.TempDir(), Options{CloudName: "c"})
	if err := b.Append(store.RoundMeta{Index: 3}, nil); err == nil {
		t.Error("out-of-sequence append accepted")
	}
	if err := b.Append(store.RoundMeta{Index: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Rewrite(5, store.RoundMeta{Index: 5}, nil); err == nil {
		t.Error("rewrite of missing round accepted")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(store.RoundMeta{Index: 1}, nil); err == nil {
		t.Error("append after close accepted")
	}
	if _, err := b.Records(0); err == nil {
		t.Error("read after close accepted")
	}
}

// TestRecordsAreNotAliased: a record handed out by Records is the
// caller's own — mutating it without a Rewrite leaves the stored value
// alone, so an analysis that labels in place and forgets UpdateRounds
// cannot leak its labels to the next reader.
func TestRecordsAreNotAliased(t *testing.T) {
	b := openBackend(t, t.TempDir(), Options{CloudName: "c"})
	meta, recs := roundTripFixture()
	meta.Index = 0
	if err := b.Append(meta, recs); err != nil {
		t.Fatal(err)
	}
	first, err := b.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	want := *first[0]
	first[0].Cluster += 99
	first[0].Title = "mutated by a reader"
	again, err := b.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*again[0], want) {
		t.Fatalf("a reader's mutation reached the next reader:\n got %+v\nwant %+v", *again[0], want)
	}
	hist, err := b.History(want.IP)
	if err != nil || len(hist) != 1 || !reflect.DeepEqual(*hist[0], want) {
		t.Fatalf("History after a reader's mutation = %+v (%v), want %+v", hist, err, want)
	}
}

// TestMemoryBounded is the acceptance check for the columnar engine's
// reason to exist: a 50k-IP x 10-round campaign must stay under
// 256 MiB of live heap with colstore while the in-memory backend, by
// retaining every record, exceeds what colstore needed.
func TestMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("50k x 10 campaign; skipped with -short")
	}
	const (
		rounds   = 10
		perRound = 50_000
		limit    = 256 << 20
	)
	run := func(s *store.Store) uint64 {
		var peak uint64
		sample := func() {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		for r := 0; r < rounds; r++ {
			if _, err := s.BeginRound(r); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < perRound; i++ {
				if err := s.PutBatch([]*store.Record{fullRecord(uint32(0x0a000000+i*7), r, r)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.EndRound(); err != nil {
				t.Fatal(err)
			}
			sample()
		}
		return peak
	}

	colPeak := run(store.NewWithBackend("ec2", openBackend(t, t.TempDir(), Options{CloudName: "ec2"})))
	memPeak := run(store.New("ec2"))
	t.Logf("peak heap: colstore %d MiB, memory %d MiB", colPeak>>20, memPeak>>20)
	if colPeak > limit {
		t.Errorf("colstore peak heap %d MiB exceeds the 256 MiB budget", colPeak>>20)
	}
	if memPeak <= colPeak {
		t.Errorf("memory backend peak %d MiB not above colstore's %d MiB; the comparison is vacuous",
			memPeak>>20, colPeak>>20)
	}
}
