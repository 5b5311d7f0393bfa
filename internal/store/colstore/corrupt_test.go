package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whowas/internal/store"
)

// bodyEnd returns where a sealed segment's footer starts.
func bodyEnd(data []byte) int {
	return len(data) - tailLen - int(binary.BigEndian.Uint32(data[len(data)-tailLen:]))
}

// resealFooter rewrites a valid segment's footer through mutate and
// seals the result, CRC included: what a buggy or hostile writer would
// leave on disk, and what no bit-flip test reaches because the CRC
// catches those first.
func resealFooter(t *testing.T, data []byte, mutate func(*segFooter)) []byte {
	t.Helper()
	f, err := parseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	mutate(f)
	return seal(append([]byte(nil), data[:bodyEnd(data)]...), f)
}

// TestFooterBounds: a CRC-valid footer that lies about a length or a
// count is refused at parse time — before any read path sizes a buffer
// with it. (With the bounds missing, the first Records or History on
// such a segment dies in make: "fatal error: runtime: out of memory",
// not even a panic.)
func TestFooterBounds(t *testing.T) {
	meta, recs := roundTripFixture()
	data, err := encodeSegment(meta, "ec2", recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := resealFooter(t, data, func(*segFooter) {}); !bytes.Equal(got, data) {
		t.Fatal("resealing an unchanged footer changed the segment")
	}
	cases := []struct {
		name   string
		mutate func(*segFooter)
		want   string // the rule that must fire
	}{
		{"group raw length 1<<40", func(f *segFooter) { f.Groups[0].RawLen = 1 << 40 }, "out of range"},
		{"group raw length past the codec", func(f *segFooter) { f.Groups[0].RawLen = maxRawLen(f.Groups[0].CompLen) + 1 }, "raw bytes from"},
		{"group rows past its IP column", func(f *segFooter) { f.Groups[0].Rows = f.Groups[0].IPLen + 2 }, "rows in a"},
		{"group rows past its raw bytes", func(f *segFooter) {
			g := &f.Groups[0]
			g.Rows = g.RawLen/minRowLen + 1
			g.IPLen, f.Meta.Records = g.Rows, g.Rows
		}, "rows in a"},
		{"group without rows", func(f *segFooter) { f.Groups[0].Rows = 0 }, "rows in a"},
		{"records 1<<40", func(f *segFooter) { f.Meta.Records = 1 << 40 }, "out of range"},
		{"records past the groups' rows", func(f *segFooter) { f.Meta.Records++ }, "its row groups hold"},
		{"group offset inside the magic", func(f *segFooter) { f.Groups[0].Off = 0 }, "outside segment bounds"},
		{"group offset past the footer", func(f *segFooter) { f.Groups[0].Off = int64(len(data)) }, "outside segment bounds"},
		{"group block past the footer", func(f *segFooter) { f.Groups[0].CompLen = len(data) }, "outside segment bounds"},
		{"group IP column past the footer", func(f *segFooter) { f.Groups[0].IPLen = len(data) }, "outside segment bounds"},
		{"group first IP past 32 bits", func(f *segFooter) {
			// Written as a step from the group before: stepping back wraps.
			f.Groups = append(f.Groups, f.Groups[0])
			f.Groups[1].FirstIP--
		}, "overflows 32 bits"},
		{"words 1<<40", func(f *segFooter) { f.Words = 1 << 40 }, "out of range"},
		{"words past the chunks", func(f *segFooter) { f.Words += chunkWords }, "dictionary chunks for"},
		{"no words", func(f *segFooter) { f.Words, f.Chunks = 0, nil }, "dictionary chunks for"},
		{"chunk raw length 1<<40", func(f *segFooter) { f.Chunks[0].RawLen = 1 << 40 }, "out of range"},
		{"chunk raw length past the codec", func(f *segFooter) { f.Chunks[0].RawLen = maxRawLen(f.Chunks[0].CompLen) + 1 }, "raw bytes from"},
		{"chunk too short for its words", func(f *segFooter) { f.Chunks[0].RawLen = 2*chunkWords - 1 }, "raw bytes from"},
		{"chunk past the footer", func(f *segFooter) { f.Chunks[0].CompLen = len(data) }, "outside segment bounds"},
		{"chunk offset past the footer", func(f *segFooter) { f.Chunks[0].Off = int64(len(data)) }, "outside segment bounds"},
	}
	for _, c := range cases {
		_, err := parseFooter(resealFooter(t, data, c.mutate))
		if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parseFooter = %v, want ErrCorrupt mentioning %q", c.name, err, c.want)
		}
	}

	// A directory's claimed size is held to the footer's own length
	// before the directory is allocated. seal cannot write that lie, so
	// the footer is assembled by hand: an empty round's fixed fields,
	// then a group count.
	w := colWriter{buf: []byte(headMagic)}
	for i := 0; i < 7; i++ {
		w.byte(0)
	}
	w.uvarint(1 << 40)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(w.buf)-len(headMagic)))
	w.buf = binary.BigEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
	if _, err := parseFooter(append(w.buf, tailMagic...)); !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("group count 1<<40: parseFooter = %v, want ErrCorrupt", err)
	}

	// The same lie, through the backend: Open refuses the directory.
	dir := t.TempDir()
	bad := resealFooter(t, data, func(f *segFooter) { f.Meta.Index = 0; f.Groups[0].RawLen = 1 << 40 })
	if err := os.WriteFile(filepath.Join(dir, segName(0)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestOpenRefusesV1: a directory in the superseded whole-round layout
// is intact, not corrupt, and unreadable by this build; the error must
// say so and say what to do.
func TestOpenRefusesV1(t *testing.T) {
	meta, recs := sparseFixture()
	data, err := encodeSegment(meta, "c", recs)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, v1Magic)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Open = %v, want a version error that is not ErrCorrupt", err)
	}
	for _, want := range []string{segName(0), "v1", v1Magic, "whowas-query -store FILE -to-dir DIR"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestParallelDecodeDeterministic: with two row groups corrupt, the
// scan reports the lower one's error — the one a serial decode meets
// first — in the same words at every GOMAXPROCS and however the
// workers interleave.
func TestParallelDecodeDeterministic(t *testing.T) {
	recs := make([]*store.Record, 4*groupRows+9)
	for i := range recs {
		recs[i] = fullRecord(uint32(0x0a000000+i*3), 2, 6)
	}
	data, err := encodeSegment(store.RoundMeta{Index: 2, Day: 6, Records: len(recs)}, "ec2", recs)
	if err != nil {
		t.Fatal(err)
	}
	foot, err := parseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	// Groups 1 and 3 become copy tokens reaching before the start of
	// their output; the CRC is re-sealed the way FuzzSegment does it.
	for _, gi := range []int{1, 3} {
		g := foot.Groups[gi]
		block := data[g.Off+int64(g.IPLen) : g.Off+int64(g.IPLen+g.CompLen)]
		for k := range block {
			block[k] = 0x80
		}
	}
	crcOff := len(data) - 12
	binary.BigEndian.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[:crcOff]))
	if foot, err = parseFooter(data); err != nil {
		t.Fatal(err)
	}

	var want string
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			_, err := decodeSegment(data, foot, store.AllFields, new(readStats), nil)
			if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "row group 1:") {
				t.Fatalf("GOMAXPROCS %d: decodeSegment = %v, want row group 1's ErrCorrupt", procs, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("GOMAXPROCS %d: error %q, at GOMAXPROCS 1 %q", procs, err, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	// The helper alone, the lower failure the slower: index 9 fails
	// first and still loses to index 5, and everything below 5 ran.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var ran [64]atomic.Bool
	err = parallel(len(ran), func(i int) error {
		ran[i].Store(true)
		switch i {
		case 5:
			time.Sleep(5 * time.Millisecond)
			return errors.New("index 5")
		case 9:
			return errors.New("index 9")
		}
		return nil
	})
	if err == nil || err.Error() != "index 5" {
		t.Fatalf("parallel = %v, want index 5's error", err)
	}
	for i := 0; i < 5; i++ {
		if !ran[i].Load() {
			t.Errorf("index %d, below the failure, never ran", i)
		}
	}
}

// allocated returns the bytes this process has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzSegment mutates valid segments and re-seals them — magics and
// CRC restored — so the mutation reaches what the CRC normally
// shields: the footer, group-header, cursor, dictionary-chunk and
// front-coding decoders. Whatever the bytes, parse + whole and narrowed
// scans + point reads return records or an error wrapping ErrCorrupt;
// they never panic and never allocate beyond a multiple of the input
// (a make sized by an unchecked number overshoots it by orders of
// magnitude).
func FuzzSegment(f *testing.F) {
	for _, fixture := range []func() (store.RoundMeta, []*store.Record){
		roundTripFixture,
		sparseFixture,
		func() (store.RoundMeta, []*store.Record) { return store.RoundMeta{Index: 1}, nil },
		func() (store.RoundMeta, []*store.Record) {
			// Three groups and several dictionary chunks.
			recs := make([]*store.Record, 2*groupRows+1)
			for i := range recs {
				recs[i] = fullRecord(uint32(0x0a000000+i*3), 2, 6)
			}
			return store.RoundMeta{Index: 2, Day: 6, Records: len(recs)}, recs
		},
	} {
		meta, recs := fixture()
		data, err := encodeSegment(meta, "ec2", recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < len(headMagic)+tailLen {
			return
		}
		data = append([]byte(nil), data...)
		copy(data, headMagic)
		copy(data[len(data)-len(tailMagic):], tailMagic)
		crcOff := len(data) - 12
		binary.BigEndian.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[:crcOff]))

		before := allocated()
		check := func(what string, err error) bool {
			if err != nil && !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("%s: error %v does not wrap ErrCorrupt", what, err)
			}
			return err == nil
		}
		foot, err := parseFooter(data)
		if !check("parseFooter", err) {
			return
		}
		recs, err := decodeSegment(data, foot, store.AllFields, new(readStats), nil)
		scanned := check("decodeSegment", err)
		if scanned && len(recs) != foot.Meta.Records {
			t.Fatalf("decoded %d records, footer says %d", len(recs), foot.Meta.Records)
		}
		// A narrowed scan, of a field set the input picks, reads a subset
		// of the same cursors: it may succeed where the whole scan fails,
		// but never the reverse, and it agrees on what it reads.
		fields := store.Fields(binary.BigEndian.Uint32(data[crcOff:])) & store.AllFields
		narrow, err := decodeSegment(data, foot, fields, new(readStats), nil)
		if check("narrowed decodeSegment", err) && scanned {
			for k, rec := range recs {
				if want := masked(rec, fields); !reflect.DeepEqual(*narrow[k], want) {
					t.Fatalf("fields %b, record %d: narrowed %+v, whole %+v", fields, k, *narrow[k], want)
				}
			}
		} else if scanned {
			t.Fatalf("fields %b: narrowed scan failed (%v) where the whole scan succeeded", fields, err)
		}
		probes := []uint32{foot.MinIP, foot.MaxIP}
		if len(foot.Groups) > 0 {
			probes = append(probes, foot.Groups[len(foot.Groups)/2].FirstIP)
		}
		for _, ip := range probes {
			rec, err := readRow(bytes.NewReader(data), foot, ip, new(readStats))
			if !check("readRow", err) || !scanned || rec == nil {
				continue
			}
			// A segment that scans clean must answer the point read
			// with a row the scan also produced.
			found := false
			for _, r := range recs {
				found = found || reflect.DeepEqual(r, rec)
			}
			if !found {
				t.Fatalf("readRow(%d) = %+v, which the scan never produced", ip, *rec)
			}
		}
		if grew, limit := allocated()-before, uint64(1<<20+1024*len(data)); grew > limit {
			t.Fatalf("%d-byte segment made the decoders allocate %d bytes (limit %d)", len(data), grew, limit)
		}
	})
}

// FuzzDecompress: arbitrary bytes under an arbitrary claimed length
// either expand to exactly that length or fail, without a panic and
// without a buffer the input could not fill; and whatever compress
// emits for those bytes expands back to them.
func FuzzDecompress(f *testing.F) {
	meta, recs := roundTripFixture()
	seg, err := encodeSegment(meta, "ec2", recs)
	if err != nil {
		f.Fatal(err)
	}
	foot, err := parseFooter(seg)
	if err != nil {
		f.Fatal(err)
	}
	g, c := foot.Groups[0], foot.Chunks[0]
	f.Add(seg[g.Off+int64(g.IPLen):g.Off+int64(g.IPLen+g.CompLen)], g.RawLen)
	f.Add(seg[c.Off:c.Off+int64(c.CompLen)], c.RawLen)
	f.Add(compress(nil, []byte(strings.Repeat("columnar segments ", 64))), 18*64)
	f.Add([]byte{0x00, 'a', 0x80, 0x01, 0x00}, 1<<40)
	f.Fuzz(func(t *testing.T, src []byte, rawLen int) {
		before := allocated()
		out, err := decompress(nil, src, rawLen)
		if err == nil && len(out) != rawLen {
			t.Fatalf("decompress returned %d bytes for a claimed %d", len(out), rawLen)
		}
		if grew, limit := allocated()-before, uint64(1<<20+2*maxRawLen(len(src))); grew > limit {
			t.Fatalf("%d input bytes made decompress allocate %d (limit %d)", len(src), grew, limit)
		}
		back, err := decompress(nil, compress(nil, src), len(src))
		if err != nil || !bytes.Equal(back, src) {
			t.Fatalf("round trip of %d bytes: err %v", len(src), err)
		}
	})
}
