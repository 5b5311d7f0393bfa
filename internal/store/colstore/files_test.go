package colstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// writeRounds fills dir with rounds segments of per records each, every
// round on the same addresses (base + 11k), and closes the backend.
func writeRounds(t testing.TB, dir string, rounds, per int) {
	t.Helper()
	b, err := Open(dir, Options{CloudName: "c"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		recs := make([]*store.Record, per)
		for i := range recs {
			recs[i] = fullRecord(uint32(0x0a000000+i*11), r, 3*r)
		}
		if err := b.Append(store.RoundMeta{Index: r, Day: 3 * r, Records: per}, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// openFDs counts the process's open file descriptors; -1 off Linux.
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return -1
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestSegmentFilesLifecycle: the backend holds one handle per segment
// from Open to Close, reads open nothing, a Rewrite swaps its round's
// handle instead of adding one, and no path — a failed Open included —
// leaves a descriptor behind.
func TestSegmentFilesLifecycle(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	const rounds = 4
	dir := t.TempDir()
	writeRounds(t, dir, rounds, 50)
	base := openFDs(t)
	expect := func(what string, want int) {
		t.Helper()
		if got := openFDs(t); got != want {
			t.Errorf("%s: %d descriptors open, want %d", what, got, want)
		}
	}

	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	expect("after Open", base+rounds)
	for i := 0; i < rounds; i++ {
		if _, err := b.Records(i); err != nil {
			t.Fatal(err)
		}
	}
	ip := ipaddr.Addr(0x0a000000 + 7*11)
	if h, err := b.History(ip); err != nil || len(h) != rounds {
		t.Fatalf("History = %d records (%v), want %d", len(h), err, rounds)
	}
	expect("after Records and History", base+rounds)

	// Twenty rewrites of one round: each swaps the round's handle.
	recs, err := b.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := b.Meta(1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		for _, rec := range recs {
			rec.Cluster = int64(k)
		}
		if err := b.Rewrite(1, meta, recs); err != nil {
			t.Fatal(err)
		}
	}
	expect("after 20 rewrites", base+rounds)
	if h, err := b.History(ip); err != nil || len(h) != rounds || h[1].Cluster != 19 || h[0].Cluster == 19 {
		t.Fatalf("History after rewrites = %+v (%v)", h, err)
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	expect("after Close", base)
	if err := b.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	expect("after a second Close", base)

	// A failing Open releases the handles it opened before the failure.
	path := filepath.Join(dir, segName(2))
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
	expect("after a failed Open", base)
}

// replaceFile puts data at path as a new file. (Truncating the old one
// in place instead makes ext4 flush it at close: ~50 ms a write.)
func replaceFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenTruncatedAtEveryLength is the crash at byte N of a segment
// write: the last segment cut to every shorter length is ErrCorrupt at
// Open — never a panic, never a success, never a leaked descriptor —
// and the same bytes left as the write's .tmp sibling are ignored.
func TestOpenTruncatedAtEveryLength(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 2, 3)
	last := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	intact := openBackend(t, dir, Options{})
	want, err := intact.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := intact.Close(); err != nil {
		t.Fatal(err)
	}
	base := openFDs(t)

	for n := 0; n < len(data); n++ {
		replaceFile(t, last, data[:n])
		b, err := Open(dir, Options{})
		if !errors.Is(err, store.ErrCorrupt) {
			if err == nil {
				_ = b.Close()
			}
			t.Fatalf("last segment cut to %d of %d bytes: Open = %v, want ErrCorrupt", n, len(data), err)
		}
		if got := openFDs(t); got != base {
			t.Fatalf("cut to %d bytes: %d descriptors open after the failed Open, want %d", n, got, base)
		}
	}

	replaceFile(t, last, data)
	for n := 0; n < len(data); n++ {
		replaceFile(t, last+".tmp", data[:n])
		b, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("a %d-byte .tmp sibling: Open = %v", n, err)
		}
		got, err := b.Records(1)
		if cerr := b.Close(); err == nil {
			err = cerr
		}
		if err != nil || !reflect.DeepEqual(derefAll(got), derefAll(want)) {
			t.Fatalf("a %d-byte .tmp sibling changed round 1 (err %v)", n, err)
		}
	}
}

// TestRewriteReplacesSegmentFile pins the crash-safe write: a segment
// is written to a temp file and renamed into place, never truncated and
// rewritten in place, so another link to the old file keeps its bytes.
func TestRewriteReplacesSegmentFile(t *testing.T) {
	dir := t.TempDir()
	b := openBackend(t, dir, Options{CloudName: "ec2"})
	meta, recs := sparseFixture()
	if err := b.Append(meta, recs); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old.seg")
	if err := os.Link(filepath.Join(dir, segName(0)), old); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(old)
	meta.Probed++
	if err := b.Rewrite(0, meta, recs); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(old); !bytes.Equal(before, after) {
		t.Fatal("Rewrite wrote through the old segment file; it must rename a new one into place")
	}
}
