package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"whowas/internal/store"
)

// TestCompressorReuse: one compressor carried across many inputs, as
// a segment's encoder carries it across a group's streams and its
// dictionary chunks, emits for each exactly what a fresh compress does.
// The inputs are random bytes of random lengths, the real column
// streams and chunks of encoded fixtures, and a run that crosses the
// table's position limit and so starts it over.
func TestCompressorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var inputs [][]byte
	for i := 0; i < 200; i++ {
		src := make([]byte, rng.Intn(3000))
		alphabet := 1 + rng.Intn(255) // small alphabets repeat, so they match
		for k := range src {
			src[k] = byte(rng.Intn(alphabet))
		}
		inputs = append(inputs, src)
	}
	for _, recs := range [][]*store.Record{randRound(rng, 3*groupRows+5, 2, 6), nil} {
		if recs == nil {
			_, recs = roundTripFixture()
		}
		enc := rowEncoder{}
		_, enc.dict = buildDict(recs)
		for _, rec := range recs {
			enc.write(rec)
		}
		for c := range enc.cols {
			inputs = append(inputs, enc.cols[c].buf)
		}
		data, err := encodeSegment(store.RoundMeta{Records: len(recs)}, "c", recs)
		if err != nil {
			t.Fatal(err)
		}
		foot, err := parseFooter(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range foot.Chunks {
			raw, err := inflateChunk(nil, data[c.Off:c.Off+int64(c.CompLen)], c.RawLen, i)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, raw)
		}
	}

	var z compressor
	check := func(k int, src []byte) {
		t.Helper()
		if got, want := z.compress(nil, src), compress(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes, base %d): reused compressor emitted %d bytes, a fresh one %d",
				k, len(src), z.base, len(got), len(want))
		}
	}
	for k, src := range inputs {
		check(k, src)
	}
	// Near the limit the next input must start the table over rather
	// than wrap the positions it enters.
	z.base = math.MaxInt32 - 100
	for k, src := range inputs[:20] {
		check(k, src)
	}
	if z.base < 0 || z.base > 1<<20 {
		t.Fatalf("base %d: the table was never started over", z.base)
	}
}

// rewriteDirectory re-renders a valid segment with row group gi's
// stream directory passed through mutate: every group keeps its IP
// column and compressed streams, offsets and lengths are laid out
// again, the footer keeps its RawLen and the CRC is re-sealed. It is
// what a buggy writer would leave on disk; fixed-width columns have no
// raw length in the directory to mutate.
func rewriteDirectory(t *testing.T, data []byte, gi int, mutate func(*[numCols]stream)) []byte {
	t.Helper()
	f, err := parseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte(headMagic)
	for i := range f.Groups {
		g := &f.Groups[i]
		block := g.streams(data)
		dir, err := g.directory(block, i)
		if err != nil {
			t.Fatal(err)
		}
		ips, streams := data[g.Off:g.Off+int64(g.IPLen)], block[dir[0].off:]
		if i == gi {
			mutate(&dir)
		}
		g.Off = int64(len(out))
		out = append(out, ips...)
		for c, s := range dir {
			out = binary.AppendUvarint(out, uint64(s.comp))
			if columns[c].kind.width() == 0 {
				out = binary.AppendUvarint(out, uint64(s.raw))
			}
		}
		out = append(out, streams...)
		g.CompLen = len(out) - int(g.Off) - g.IPLen
	}
	for i := range f.Chunks {
		c := &f.Chunks[i]
		comp := data[c.Off : c.Off+int64(c.CompLen)]
		c.Off = int64(len(out))
		out = append(out, comp...)
	}
	return seal(out, f)
}

// TestStreamDirectoryBounds: a CRC-valid segment whose stream directory
// lies is refused at Open with ErrCorrupt naming the group, and the
// scan and the point read over it fail the same way, never panicking;
// a directory in the v2 layout is refused with the remedy.
func TestStreamDirectoryBounds(t *testing.T) {
	recs := make([]*store.Record, 2*groupRows+9)
	for i := range recs {
		recs[i] = fullRecord(uint32(0x0a000000+i*3), 0, 0)
	}
	meta := store.RoundMeta{Records: len(recs)}
	data, err := encodeSegment(meta, "ec2", recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := rewriteDirectory(t, data, 1, func(*[numCols]stream) {}); !bytes.Equal(got, data) {
		t.Fatal("rewriting an unchanged directory changed the segment")
	}
	cases := []struct {
		name   string
		mutate func(*[numCols]stream)
		want   string
	}{
		{"stream overruns its group", func(d *[numCols]stream) { d[colCluster].comp++ }, `column "cluster"'s stream overruns the group`},
		{"stream past the whole group", func(d *[numCols]stream) { d[colTitle].comp = 1 << 40 }, `column "title"'s stream overruns the group`},
		{"streams end short of the group", func(d *[numCols]stream) { d[colBody].comp-- }, "streams end 1 bytes before the group does"},
		{"raw length past the codec", func(d *[numCols]stream) { d[colBody].raw = maxRawLen(d[colBody].comp) + 1 }, `column "body" claims`},
		{"raw length 1<<40", func(d *[numCols]stream) { d[colStatus].raw = 1 << 40 }, `column "status" claims`},
		{"raw lengths off the footer's", func(d *[numCols]stream) { d[colStatus].raw++ }, "the footer says"},
	}
	for _, c := range cases {
		bad := rewriteDirectory(t, data, 1, c.mutate)
		rule := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "row group 1: ") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s = %v, want ErrCorrupt naming row group 1 and %q", c.name, what, err, c.want)
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{})
		rule("Open", err)
		foot, err := parseFooter(bad)
		if err != nil {
			t.Fatalf("%s: the footer itself must stay valid: %v", c.name, err)
		}
		for _, fields := range []store.Fields{0, store.FieldPorts, store.AllFields} {
			_, err := decodeSegment(bad, foot, fields, new(readStats), nil)
			rule("decodeSegment", err)
		}
		_, err = readRow(bytes.NewReader(bad), foot, uint32(recs[groupRows+3].IP), new(readStats))
		rule("readRow", err)
	}

	v2 := append([]byte(nil), data...)
	copy(v2, v2Magic)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Open of a v2 directory = %v, want a version error that is not ErrCorrupt", err)
	}
	for _, want := range []string{segName(0), "v2", v2Magic, headMagic, "whowas-query -store FILE -to-dir DIR"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestParallelChunkLoadDeterministic: with two dictionary chunks
// corrupt, a scan of the string columns reports one error, the one a
// serial decode meets first, in the same words at every GOMAXPROCS
// however the workers race to load the chunks.
func TestParallelChunkLoadDeterministic(t *testing.T) {
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
	if len(foot.Chunks) < 4 {
		t.Fatalf("fixture has %d dictionary chunks, want at least 4", len(foot.Chunks))
	}
	for _, ci := range []int{1, 3} {
		c := foot.Chunks[ci]
		for k := c.Off; k < c.Off+int64(c.CompLen); k++ {
			data[k] = 0x80
		}
	}
	crcOff := len(data) - 12
	binary.BigEndian.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[:crcOff]))
	if foot, err = parseSegment(data); err != nil {
		t.Fatal(err)
	}

	var want string
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			_, err := decodeSegment(data, foot, dictFields, new(readStats), nil)
			if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "dictionary chunk ") {
				t.Fatalf("GOMAXPROCS %d: decodeSegment = %v, want a dictionary chunk's ErrCorrupt", procs, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("GOMAXPROCS %d: error %q, at GOMAXPROCS 1 %q", procs, err, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	// The columns that resolve no word never load a chunk.
	if _, err := decodeSegment(data, foot, store.AllFields&^dictFields, new(readStats), nil); err != nil {
		t.Fatalf("a scan of no string column: %v", err)
	}
}
