package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whowas/internal/ipaddr"
)

// buildSaved writes a 3-round campaign to a temp file and returns the
// path plus the live store it came from.
func buildSaved(t *testing.T) (string, *Store) {
	t.Helper()
	s := New("ec2")
	for r := 0; r < 3; r++ {
		if _, err := s.BeginRound(r * 2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			rec := mkRecord(fmt.Sprintf("10.%d.0.%d", r, i), r)
			rec.Trackers = []string{"ga"}
			if err := s.PutBatch([]*Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
		s.AddProbed(40)
		if err := s.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, buf.Bytes()), s
}

// writeTemp writes b to a fresh temp file and returns its path.
func writeTemp(t *testing.T, b []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "store.gob")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// reopen saves s to a temp file and opens it with OpenFile.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFile(writeTemp(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestFileBackendDigestIdentity: a saved store reopened from its file
// reproduces the original digest, History and JSON export byte for
// byte.
func TestFileBackendDigestIdentity(t *testing.T) {
	path, orig := buildSaved(t)
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.CloudName != "ec2" || st.NumRounds() != 3 {
		t.Fatalf("reopened store: cloud %q, %d rounds", st.CloudName, st.NumRounds())
	}
	want, err := orig.Digest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
	ip := ipaddr.MustParseAddr("10.1.0.5")
	if h := st.History(ip); len(h) != 1 || h[0].Round != 1 {
		t.Fatalf("History = %+v", h)
	}
	if h := st.History(ipaddr.MustParseAddr("9.9.9.9")); h != nil {
		t.Fatalf("History of unseen IP = %+v", h)
	}
	var loaded, live bytes.Buffer
	if err := st.ExportJSON(&loaded, 1); err != nil {
		t.Fatal(err)
	}
	if err := orig.ExportJSON(&live, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded.Bytes(), live.Bytes()) {
		t.Fatal("ExportJSON diverges between the loaded file and the live store")
	}
}

// TestOpenFileCorrupt: truncated and mangled save files must surface
// ErrCorrupt from open — never a panic, never a partial store — and
// that includes damage only decoding finds (a flipped byte inside a
// records frame). The undamaged original still opens.
func TestOpenFileCorrupt(t *testing.T) {
	path, _ := buildSaved(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"bad magic":         []byte("NOTASTORE-------"),
		"magic only":        []byte(saveMagic),
		"mid header":        data[:len(saveMagic)+3],
		"mid frame":         data[:len(data)/2],
		"last byte missing": data[:len(data)-1],
		"trailing garbage":  append(append([]byte{}, data...), 'x'),
		"byte flipped":      flip(data, len(data)/2),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := OpenFileBackend(writeTemp(t, b)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenFileBackend = %v, want ErrCorrupt", err)
			}
		})
	}
	b, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
}

// TestOpenFileRefusesUnsorted: a round whose records are not in
// strictly ascending IP order is refused at open, since History and
// Round.Get binary search it.
func TestOpenFileRefusesUnsorted(t *testing.T) {
	lo, hi := *mkRecord("10.0.0.1", 0), *mkRecord("10.0.0.2", 0)
	frame := func(recs ...Record) []byte {
		var buf bytes.Buffer
		buf.WriteString(saveMagic)
		for _, v := range []any{
			&saveHeader{Version: saveVersion, CloudName: "ec2", Rounds: 1},
			&RoundMeta{Records: len(recs)},
			recs,
		} {
			if err := gobFrame(&buf, v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if _, err := OpenFile(writeTemp(t, frame(lo, hi))); err != nil {
		t.Fatalf("sorted round refused: %v", err)
	}
	for name, recs := range map[string][]Record{"swapped": {hi, lo}, "duplicate": {lo, lo}} {
		if _, err := OpenFile(writeTemp(t, frame(recs...))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenFile = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadCorrupt: loading a damaged file — opening it, then reading
// every round — reports ErrCorrupt, including a flipped byte inside a
// records frame.
func TestLoadCorrupt(t *testing.T) {
	path, _ := buildSaved(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	load := func(path string) error {
		b, err := OpenFileBackend(path)
		if err != nil {
			return err
		}
		defer b.Close()
		for i := 0; i < b.NumRounds(); i++ {
			if _, err := b.Read(i, AllFields, nil); err != nil {
				return err
			}
		}
		return nil
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOTASTORE-------"),
		"magic only":   []byte(saveMagic),
		"mid frame":    data[:len(data)/2],
		"byte flipped": flip(data, len(data)/2),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if err := load(writeTemp(t, b)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load = %v, want ErrCorrupt", err)
			}
		})
	}
	// The undamaged original still loads.
	if err := load(path); err != nil {
		t.Fatal(err)
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0x20
	return out
}

// TestUpdateRounds: mutations persist only through UpdateRounds, and
// they change the digest.
func TestUpdateRounds(t *testing.T) {
	_, s := buildSaved(t)
	before, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	err = s.UpdateRounds([]int{0, 1}, func(r *Round) bool {
		if r.Index != 1 {
			return false
		}
		r.Each(func(rec *Record) bool {
			rec.VPC = true
			return true
		})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("UpdateRounds left the digest unchanged")
	}
	if rec := s.Round(1).Get(ipaddr.MustParseAddr("10.1.0.2")); rec == nil || !rec.VPC {
		t.Fatalf("mutation not visible: %+v", rec)
	}
	if rec := s.Round(0).Get(ipaddr.MustParseAddr("10.0.0.2")); rec == nil || rec.VPC {
		t.Fatalf("unchanged round mutated: %+v", rec)
	}
	if err := s.UpdateRounds([]int{s.NumRounds()}, func(*Round) bool { return true }); err == nil {
		t.Error("UpdateRounds accepted a round the store does not hold")
	}
}

// TestEachRound streams rounds in order and honors early stop.
func TestEachRound(t *testing.T) {
	_, s := buildSaved(t)
	var seen []int
	s.EachRound(func(r *Round) bool {
		seen = append(seen, r.Index)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("seen = %v", seen)
	}
}

// TestFileBackendMatchesMemory holds the read-only gob backend to the
// memory backend it was saved from: rounds of 0, 1 and many records,
// every read method, and History for every present IP plus gap and
// out-of-range keys.
func TestFileBackendMatchesMemory(t *testing.T) {
	s := New("ec2")
	var ips []ipaddr.Addr
	for r, n := range []int{0, 1, 40, 0, 7} {
		if _, err := s.BeginRound(r * 3); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rec := mkRecord(fmt.Sprintf("10.0.%d.%d", i%3, 2*i+r), r)
			ips = append(ips, rec.IP, rec.IP+1) // +1: a gap key no round holds
			if err := s.PutBatch([]*Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
		s.AddProbed(int64(10 * n))
		if err := s.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	ips = append(ips, 0, ipaddr.MustParseAddr("9.255.255.255"), ipaddr.MustParseAddr("255.255.255.255"))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.gob")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	mem := s.Backend()
	if got, want := fb.NumRounds(), mem.NumRounds(); got != want {
		t.Fatalf("NumRounds = %d, want %d", got, want)
	}
	same := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: file = %v (err %v), memory = %v (err %v)", what, got, gotErr, want, wantErr)
		}
	}
	for i := -1; i <= mem.NumRounds(); i++ {
		gm, gerr := fb.Meta(i)
		wm, werr := mem.Meta(i)
		same(fmt.Sprintf("Meta(%d)", i), gm, wm, gerr, werr)
		gr, gerr := fb.Read(i, AllFields, nil)
		wr, werr := mem.Read(i, AllFields, nil)
		same(fmt.Sprintf("Records(%d)", i), gr, wr, gerr, werr)
	}
	for _, ip := range ips {
		gh, gerr := fb.History(ip)
		wh, werr := mem.History(ip)
		same(fmt.Sprintf("History(%v)", ip), gh, wh, gerr, werr)
	}
}
