// Segment encoding: one file per finalized round, laid out so that a
// scan decodes it front to back and a point read ("who was on this
// IP?") touches one row. Records are cut into row groups of groupRows
// consecutive IP-sorted records; inside a group the fields are stored
// column-wise — each encoded to its shape (delta+uvarint IPs, packed
// flag bits, ids into a shared string dictionary for the feature
// columns) — and every column but the IPs is byte-compressed. The IP
// column stays raw so a membership test decompresses nothing. The
// dictionary is segment-wide (real pages share long strings across
// groups) but addressable: its sorted words are cut into chunks of
// chunkWords, each front-coded and compressed on its own, so a point
// read resolves its handful of ids through the chunks they fall in.
// The layout:
//
//	[magic "WWCOLSG2"]
//	[row groups, back to back; each:
//	    IP column, raw: uvarint deltas for rows 1..n-1 (row 0's IP is
//	        in the footer)
//	    one compressed block: numCols uvarint column lengths, then the
//	        other columns back to back]
//	[dictionary chunks, back to back; each compressed on its own:
//	    per word uvarint shared-prefix length (with the word before it
//	        in the chunk), uvarint suffix length, suffix bytes]
//	[footer: hand-rolled varint encoding of segFooter — round meta,
//	         cloud name, top IP, group directory, word count, chunk
//	         directory]
//	[uint32 BE footer length]
//	[uint32 BE CRC-32 (IEEE) over everything above]
//	[tail magic "WWCOLEND"]
//
// The CRC covers the whole file, so Open proves a segment intact once
// and reads never fail afterwards; a torn or truncated write is
// detected up front and reported as store.ErrCorrupt. The footer is all
// a Backend keeps resident per segment: O(records/groupRows +
// words/chunkWords) entries, nothing per record.
package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

const (
	headMagic = "WWCOLSG2"
	// v1Magic headed the whole-round column blocks this layout replaced.
	v1Magic   = "WWCOLSG1"
	tailMagic = "WWCOLEND"
	// tailLen is footerLen (4) + CRC (4) + tail magic (8).
	tailLen = 16

	// groupRows (G) and chunkWords (K) trade point-read work against
	// compression context; ROADMAP item 2(a) has the measured table.
	groupRows  = 512
	chunkWords = 256
)

// segFooter is the segment's directory, written before the tail with
// the hand-rolled varint encoding below. Gob would be simpler but its
// type IDs come from a process-global registry, so its bytes depend on
// what else the process encoded first — and segment files (like store
// digests) must be byte-reproducible no matter who writes them.
type segFooter struct {
	Meta      store.RoundMeta
	CloudName string
	// MinIP/MaxIP bound the round's (sorted) IPs; History skips the
	// segment without touching the file when the probe is outside.
	// MinIP is the first group's FirstIP, not stored twice.
	MinIP, MaxIP uint32
	Groups       []groupInfo
	// Words is the dictionary size; chunk i holds words
	// [i*chunkWords, (i+1)*chunkWords) of it, the last chunk the rest.
	Words  int
	Chunks []chunkInfo
}

// groupInfo locates one row group. Its IP column occupies
// [Off, Off+IPLen), its compressed columns the CompLen bytes after.
type groupInfo struct {
	FirstIP uint32
	Rows    int
	Off     int64 // absolute file offset
	IPLen   int
	CompLen int
	RawLen  int
}

// chunkInfo locates one compressed dictionary chunk.
type chunkInfo struct {
	Off     int64 // absolute file offset
	CompLen int
	RawLen  int
}

// The compressed columns of a group, in block order.
const (
	colPorts = iota
	colFlags
	colScheme
	colStatus
	colFetchErr
	colCType
	colBodyLen
	colBody
	colPoweredBy
	colDesc
	colHdrNames
	colTitle
	colTemplate
	colServer
	colKeywords
	colGAID
	colSimhash
	colLinks
	colTrackers
	colSubpages
	colCluster
	numCols
)

// colKind is a column's row shape: what seek steps over.
type colKind uint8

const (
	kindByte    colKind = iota // one byte
	kindVarint                 // one varint, signed or not
	kindWord                   // one uvarint dictionary id
	kindSimhash                // simhashLen bytes
	kindBytes                  // uvarint length, then that many bytes
	kindList                   // uvarint count, then that many dictionary ids
)

const simhashLen = 12

// minRowLen is the least one row occupies across a group's compressed
// columns: its simhash, and a byte in each of the others.
const minRowLen = simhashLen + numCols - 1

// columns names each column, its shape, and the Record fields a read
// must ask for (store.Fields) to have it decoded.
var columns = [numCols]struct {
	name  string
	kind  colKind
	field store.Fields
}{
	colPorts:     {"ports", kindByte, store.FieldPorts},
	colFlags:     {"flags", kindByte, store.FieldFlags},
	colScheme:    {"scheme", kindWord, store.FieldScheme},
	colStatus:    {"status", kindVarint, store.FieldStatus},
	colFetchErr:  {"fetcherr", kindWord, store.FieldFetchErr},
	colCType:     {"ctype", kindWord, store.FieldContentType},
	colBodyLen:   {"bodylen", kindVarint, store.FieldBodyLen},
	colBody:      {"body", kindBytes, store.FieldBody},
	colPoweredBy: {"poweredby", kindWord, store.FieldPoweredBy},
	colDesc:      {"desc", kindWord, store.FieldDescription},
	colHdrNames:  {"hdrnames", kindWord, store.FieldHeaderNames},
	colTitle:     {"title", kindWord, store.FieldTitle},
	colTemplate:  {"template", kindWord, store.FieldTemplate},
	colServer:    {"server", kindWord, store.FieldServer},
	colKeywords:  {"keywords", kindWord, store.FieldKeywords},
	colGAID:      {"gaid", kindWord, store.FieldAnalyticsID},
	colSimhash:   {"simhash", kindSimhash, store.FieldSimhash},
	colLinks:     {"links", kindList, store.FieldLinks},
	colTrackers:  {"trackers", kindList, store.FieldTrackers},
	colSubpages:  {"subpages", kindVarint, store.FieldSubpages},
	colCluster:   {"cluster", kindVarint, store.FieldCluster},
}

// dictFields are the fields whose columns hold dictionary ids: a read
// that asks for none of them inflates no dictionary chunk.
var dictFields = func() (f store.Fields) {
	for _, c := range columns {
		if c.kind == kindWord || c.kind == kindList {
			f |= c.field
		}
	}
	return f
}()

// Flag bits for the packed flags column.
const (
	flagFetched = 1 << 0
	flagRobots  = 1 << 1
	flagVPC     = 1 << 2
)

// colWriter accumulates one raw (pre-compression) column.
type colWriter struct{ buf []byte }

func (w *colWriter) uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }
func (w *colWriter) varint(x int64)   { w.buf = binary.AppendVarint(w.buf, x) }
func (w *colWriter) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *colWriter) bytes(p []byte)   { w.buf = append(w.buf, p...) }
func (w *colWriter) str(s string)     { w.buf = append(w.buf, s...) }

// colReader walks one decompressed column.
type colReader struct {
	buf []byte
	pos int
	col string
}

func (r *colReader) overrun() error {
	return fmt.Errorf("%w: column %q overruns its block", store.ErrCorrupt, r.col)
}

func (r *colReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, r.overrun()
	}
	r.pos += n
	return v, nil
}

func (r *colReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, r.overrun()
	}
	r.pos += n
	return v, nil
}

func (r *colReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, r.overrun()
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// bytes takes the next n bytes; n is a length read from the column
// itself, so it is checked against what is left before any arithmetic.
func (r *colReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.pos) {
		return nil, r.overrun()
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// skipVarints steps over n varints without decoding them: each ends at
// its first byte without the continuation bit.
func (r *colReader) skipVarints(n uint64) error {
	pos := r.pos
	for ; n > 0; n-- {
		for {
			if pos >= len(r.buf) {
				return r.overrun()
			}
			pos++
			if r.buf[pos-1] < 0x80 {
				break
			}
		}
	}
	r.pos = pos
	return nil
}

// skipRows steps over n rows of a column of the given shape.
func (r *colReader) skipRows(kind colKind, n int) error {
	switch kind {
	case kindByte:
		_, err := r.bytes(uint64(n))
		return err
	case kindSimhash:
		_, err := r.bytes(uint64(n) * simhashLen)
		return err
	case kindVarint, kindWord:
		return r.skipVarints(uint64(n))
	}
	for ; n > 0; n-- {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		if kind == kindBytes {
			_, err = r.bytes(v)
		} else {
			err = r.skipVarints(v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// buildDict collects every string any dictionary column references,
// sorted for a deterministic encoding. Index 0 is always "".
func buildDict(recs []*store.Record) ([]string, map[string]uint64) {
	idx := make(map[string]uint64, len(recs)+1)
	idx[""] = 0
	// Most fields of most records are empty; skip hashing those.
	add := func(s string) {
		if s != "" {
			idx[s] = 0
		}
	}
	for _, rec := range recs {
		add(rec.Scheme)
		add(rec.FetchErr)
		add(rec.ContentType)
		add(rec.PoweredBy)
		add(rec.Description)
		add(rec.HeaderNames)
		add(rec.Title)
		add(rec.Template)
		add(rec.Server)
		add(rec.Keywords)
		add(rec.AnalyticsID)
		for _, s := range rec.Links {
			add(s)
		}
		for _, s := range rec.Trackers {
			add(s)
		}
	}
	words := make([]string, 0, len(idx))
	for s := range idx {
		words = append(words, s)
	}
	sort.Strings(words)
	// "" sorts first, so index 0 is the empty string by construction.
	for i, s := range words {
		idx[s] = uint64(i)
	}
	return words, idx
}

// rowEncoder accumulates one row group's columns; its buffers are
// reused from group to group.
type rowEncoder struct {
	dict map[string]uint64
	ips  colWriter
	cols [numCols]colWriter
	raw  []byte // scratch: the group's block before compression
}

// word writes s's dictionary id; "" is id 0 by construction, and common
// enough to be worth not hashing.
func (e *rowEncoder) word(c int, s string) {
	id := uint64(0)
	if s != "" {
		id = e.dict[s]
	}
	e.cols[c].uvarint(id)
}

// write appends one record to every column but the IPs. It is the
// inverse of rowDecoder.read, field for field.
func (e *rowEncoder) write(rec *store.Record) {
	e.cols[colPorts].byte(rec.OpenPorts)
	var flags byte
	if rec.Fetched {
		flags |= flagFetched
	}
	if rec.RobotsDenied {
		flags |= flagRobots
	}
	if rec.VPC {
		flags |= flagVPC
	}
	e.cols[colFlags].byte(flags)
	e.word(colScheme, rec.Scheme)
	e.cols[colStatus].uvarint(uint64(rec.HTTPStatus))
	e.word(colFetchErr, rec.FetchErr)
	e.word(colCType, rec.ContentType)
	e.cols[colBodyLen].uvarint(uint64(rec.BodyLen))
	e.cols[colBody].uvarint(uint64(len(rec.Body)))
	e.cols[colBody].str(rec.Body)
	e.word(colPoweredBy, rec.PoweredBy)
	e.word(colDesc, rec.Description)
	e.word(colHdrNames, rec.HeaderNames)
	e.word(colTitle, rec.Title)
	e.word(colTemplate, rec.Template)
	e.word(colServer, rec.Server)
	e.word(colKeywords, rec.Keywords)
	e.word(colGAID, rec.AnalyticsID)
	var sh [simhashLen]byte
	binary.BigEndian.PutUint32(sh[:4], rec.Simhash.Hi)
	binary.BigEndian.PutUint64(sh[4:], rec.Simhash.Lo)
	e.cols[colSimhash].bytes(sh[:])
	e.cols[colLinks].uvarint(uint64(len(rec.Links)))
	for _, s := range rec.Links {
		e.word(colLinks, s)
	}
	e.cols[colTrackers].uvarint(uint64(len(rec.Trackers)))
	for _, s := range rec.Trackers {
		e.word(colTrackers, s)
	}
	e.cols[colSubpages].uvarint(uint64(rec.Subpages))
	e.cols[colCluster].varint(rec.Cluster)
}

// flush appends the accumulated group — raw IP column, then the
// compressed block of column lengths and columns — to out, fills in
// g's lengths, and empties the encoder for the next group.
func (e *rowEncoder) flush(out []byte, g *groupInfo) []byte {
	g.Off = int64(len(out))
	g.IPLen = len(e.ips.buf)
	out = append(out, e.ips.buf...)
	e.ips.buf = e.ips.buf[:0]

	raw := e.raw[:0]
	for c := range e.cols {
		raw = binary.AppendUvarint(raw, uint64(len(e.cols[c].buf)))
	}
	for c := range e.cols {
		raw = append(raw, e.cols[c].buf...)
		e.cols[c].buf = e.cols[c].buf[:0]
	}
	e.raw = raw
	g.RawLen = len(raw)
	start := len(out)
	out = compress(out, raw)
	g.CompLen = len(out) - start
	return out
}

// encodeSegment renders one finalized round (records sorted by IP)
// into segment bytes.
func encodeSegment(meta store.RoundMeta, cloudName string, recs []*store.Record) ([]byte, error) {
	if meta.Records != len(recs) {
		return nil, fmt.Errorf("colstore: meta says %d records, got %d", meta.Records, len(recs))
	}
	words, dict := buildDict(recs)
	f := segFooter{Meta: meta, CloudName: cloudName, Words: len(words)}
	out := append(make([]byte, 0, 1024+40*len(recs)), headMagic...)

	enc := rowEncoder{dict: dict}
	prevIP := uint64(0)
	for start := 0; start < len(recs); start += groupRows {
		group := recs[start:min(start+groupRows, len(recs))]
		for i, rec := range group {
			ip := uint64(uint32(rec.IP))
			if start+i > 0 && ip <= prevIP {
				return nil, fmt.Errorf("colstore: records not strictly IP-sorted")
			}
			if i > 0 {
				enc.ips.uvarint(ip - prevIP)
			}
			prevIP = ip
			enc.write(rec)
		}
		g := groupInfo{FirstIP: uint32(group[0].IP), Rows: len(group)}
		out = enc.flush(out, &g)
		f.Groups = append(f.Groups, g)
	}
	if len(recs) > 0 {
		f.MinIP = uint32(recs[0].IP)
		f.MaxIP = uint32(recs[len(recs)-1].IP)
	}

	var chunk colWriter
	for start := 0; start < len(words); start += chunkWords {
		chunk.buf = chunk.buf[:0]
		prev := ""
		for _, s := range words[start:min(start+chunkWords, len(words))] {
			p := 0
			for p < len(prev) && p < len(s) && prev[p] == s[p] {
				p++
			}
			chunk.uvarint(uint64(p))
			chunk.uvarint(uint64(len(s) - p))
			chunk.str(s[p:])
			prev = s
		}
		c := chunkInfo{Off: int64(len(out)), RawLen: len(chunk.buf)}
		out = compress(out, chunk.buf)
		c.CompLen = len(out) - int(c.Off)
		f.Chunks = append(f.Chunks, c)
	}

	return seal(out, &f), nil
}

// seal completes a segment body (magic, groups, chunks) with its
// footer and tail.
func seal(body []byte, f *segFooter) []byte {
	out := appendFooter(body, f)
	out = binary.BigEndian.AppendUint32(out, uint32(len(out)-len(body)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return append(out, tailMagic...)
}

// parseFooter validates a whole segment's framing and CRC, decodes its
// footer and bounds everything the footer declares — offsets by the
// file, raw lengths by what their compressed bytes can expand to, row
// and word counts by the bytes that must hold them — so no read path
// allocates on a number the file's size does not back. data is the
// complete file contents.
func parseFooter(data []byte) (*segFooter, error) {
	if len(data) < len(headMagic)+tailLen {
		return nil, fmt.Errorf("%w: segment of %d bytes is too short", store.ErrCorrupt, len(data))
	}
	switch string(data[:len(headMagic)]) {
	case headMagic:
	case v1Magic:
		return nil, fmt.Errorf("written in segment format v1 (%s), this build reads and writes v2 (%s): "+
			"rebuild the directory from the campaign's portable gob with whowas-query -store FILE -to-dir DIR",
			v1Magic, headMagic)
	default:
		return nil, fmt.Errorf("%w: bad segment magic", store.ErrCorrupt)
	}
	if string(data[len(data)-8:]) != tailMagic {
		return nil, fmt.Errorf("%w: bad segment tail (torn write?)", store.ErrCorrupt)
	}
	crcOff := len(data) - 12
	wantCRC := binary.BigEndian.Uint32(data[crcOff : crcOff+4])
	if got := crc32.ChecksumIEEE(data[:crcOff]); got != wantCRC {
		return nil, fmt.Errorf("%w: segment CRC mismatch (%08x != %08x)", store.ErrCorrupt, got, wantCRC)
	}
	footerLen := int(binary.BigEndian.Uint32(data[crcOff-4 : crcOff]))
	footEnd := crcOff - 4
	footStart := footEnd - footerLen
	if footerLen <= 0 || footStart < len(headMagic) {
		return nil, fmt.Errorf("%w: bad footer length %d", store.ErrCorrupt, footerLen)
	}
	f, err := decodeFooter(data[footStart:footEnd])
	if err != nil {
		return nil, err
	}

	// inBody reports whether [off, off+n) lies between the magic and
	// the footer; every term is checked before it enters a sum.
	inBody := func(off int64, n int) bool {
		return off >= int64(len(headMagic)) && off <= int64(footStart) && n >= 0 && n <= footStart-int(off)
	}
	rows := 0
	for i, g := range f.Groups {
		switch {
		case !inBody(g.Off, g.IPLen) || !inBody(g.Off+int64(g.IPLen), g.CompLen):
			return nil, fmt.Errorf("%w: row group %d outside segment bounds", store.ErrCorrupt, i)
		case g.RawLen > maxRawLen(g.CompLen):
			return nil, fmt.Errorf("%w: row group %d claims %d raw bytes from %d compressed", store.ErrCorrupt, i, g.RawLen, g.CompLen)
		case g.Rows < 1 || g.Rows-1 > g.IPLen || g.Rows > g.RawLen/minRowLen:
			// Every row after the first owns at least one delta byte.
			return nil, fmt.Errorf("%w: row group %d claims %d rows in a %d-byte IP column and %d raw bytes",
				store.ErrCorrupt, i, g.Rows, g.IPLen, g.RawLen)
		}
		rows += g.Rows
	}
	if rows != f.Meta.Records {
		return nil, fmt.Errorf("%w: footer claims %d records, its row groups hold %d", store.ErrCorrupt, f.Meta.Records, rows)
	}
	if f.Words < 1 || len(f.Chunks) != (f.Words+chunkWords-1)/chunkWords {
		return nil, fmt.Errorf("%w: %d dictionary chunks for %d words", store.ErrCorrupt, len(f.Chunks), f.Words)
	}
	for i, c := range f.Chunks {
		switch {
		case !inBody(c.Off, c.CompLen):
			return nil, fmt.Errorf("%w: dictionary chunk %d outside segment bounds", store.ErrCorrupt, i)
		case c.RawLen > maxRawLen(c.CompLen) || c.RawLen < 2*f.wordsIn(i):
			// Every word owns at least its two length bytes.
			return nil, fmt.Errorf("%w: dictionary chunk %d claims %d words in %d raw bytes from %d compressed",
				store.ErrCorrupt, i, f.wordsIn(i), c.RawLen, c.CompLen)
		}
	}
	return f, nil
}

// wordsIn returns how many words dictionary chunk i holds.
func (f *segFooter) wordsIn(i int) int {
	return min(chunkWords, f.Words-i*chunkWords)
}

// appendFooter renders the footer deterministically: meta fields,
// cloud name, top IP, then the two directories, all varints and
// length-prefixed strings. A group's FirstIP is written as the step
// from the group before it, so the directory decodes ascending — the
// order the point read's binary search needs — by construction.
func appendFooter(out []byte, f *segFooter) []byte {
	w := &colWriter{buf: out}
	w.uvarint(uint64(f.Meta.Index))
	w.uvarint(uint64(f.Meta.Day))
	w.varint(f.Meta.Probed)
	var deg byte
	if f.Meta.Degraded {
		deg = 1
	}
	w.byte(deg)
	w.uvarint(uint64(f.Meta.Records))
	w.uvarint(uint64(len(f.CloudName)))
	w.str(f.CloudName)
	w.uvarint(uint64(f.MaxIP))
	w.uvarint(uint64(len(f.Groups)))
	prevIP := uint32(0)
	for _, g := range f.Groups {
		w.uvarint(uint64(g.FirstIP - prevIP))
		prevIP = g.FirstIP
		w.uvarint(uint64(g.Rows))
		w.uvarint(uint64(g.Off))
		w.uvarint(uint64(g.IPLen))
		w.uvarint(uint64(g.CompLen))
		w.uvarint(uint64(g.RawLen))
	}
	w.uvarint(uint64(f.Words))
	w.uvarint(uint64(len(f.Chunks)))
	for _, c := range f.Chunks {
		w.uvarint(uint64(c.Off))
		w.uvarint(uint64(c.CompLen))
		w.uvarint(uint64(c.RawLen))
	}
	return w.buf
}

// decodeFooter is the strict inverse of appendFooter; any leftover or
// missing bytes are corruption. Numbers are only range-checked against
// the footer's own length here (so nothing is allocated on a claimed
// count, and every length fits an int); parseFooter bounds them by the
// file.
func decodeFooter(buf []byte) (*segFooter, error) {
	r := &colReader{buf: buf, col: "footer"}
	var err error
	// num reads a uvarint that must not exceed limit; the first failure
	// sticks and later calls return 0.
	num := func(limit uint64) uint64 {
		if err != nil {
			return 0
		}
		v, rerr := r.uvarint()
		if rerr == nil && v > limit {
			rerr = fmt.Errorf("%w: footer value %d out of range", store.ErrCorrupt, v)
		}
		if err = rerr; err != nil {
			return 0
		}
		return v
	}
	const maxLen = 1<<31 - 1 // segment lengths and counts; round index and day too
	f := &segFooter{}
	f.Meta.Index = int(num(maxLen))
	f.Meta.Day = int(num(maxLen))
	if err == nil {
		f.Meta.Probed, err = r.varint()
	}
	if err == nil {
		var deg byte
		deg, err = r.byte()
		f.Meta.Degraded = deg != 0
	}
	f.Meta.Records = int(num(maxLen))
	if name, nerr := r.bytes(num(maxLen)); err == nil {
		f.CloudName, err = string(name), nerr
	}
	f.MaxIP = uint32(num(0xffffffff))
	// A directory entry is at least one byte per field.
	f.Groups = make([]groupInfo, num(uint64(len(buf))/6))
	prevIP := uint64(0)
	for i := range f.Groups {
		prevIP += num(0xffffffff)
		if prevIP > 0xffffffff {
			return nil, fmt.Errorf("%w: row group %d first IP overflows 32 bits", store.ErrCorrupt, i)
		}
		f.Groups[i] = groupInfo{
			FirstIP: uint32(prevIP),
			Rows:    int(num(maxLen)),
			Off:     int64(num(maxLen)),
			IPLen:   int(num(maxLen)),
			CompLen: int(num(maxLen)),
			RawLen:  int(num(maxLen)),
		}
	}
	if len(f.Groups) > 0 {
		f.MinIP = f.Groups[0].FirstIP
	}
	f.Words = int(num(maxLen))
	f.Chunks = make([]chunkInfo, num(uint64(len(buf))/3))
	for i := range f.Chunks {
		f.Chunks[i] = chunkInfo{
			Off:     int64(num(maxLen)),
			CompLen: int(num(maxLen)),
			RawLen:  int(num(maxLen)),
		}
	}
	if err != nil {
		return nil, err
	}
	if r.pos != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", store.ErrCorrupt, len(buf)-r.pos)
	}
	return f, nil
}

// wordFunc resolves a dictionary id.
type wordFunc func(id uint64) (string, error)

// rowDecoder is a cursor into each compressed column of one row group.
// It is the only routine that turns column bytes into a Record:
// decodeSegment drives read over every row, the point read seeks to
// its one row and calls the same read. Only the columns of fields are
// read; the others' cursors never move.
type rowDecoder struct {
	cols   [numCols]colReader
	word   wordFunc
	fields store.Fields
}

// reset points the cursors at row 0 of a decompressed group block.
func (d *rowDecoder) reset(raw []byte) error {
	hdr := colReader{buf: raw, col: "group header"}
	var lens [numCols]uint64
	for c := range lens {
		var err error
		if lens[c], err = hdr.uvarint(); err != nil {
			return err
		}
	}
	for c := range d.cols {
		buf, err := hdr.bytes(lens[c])
		if err != nil {
			return err
		}
		d.cols[c] = colReader{buf: buf, col: columns[c].name}
	}
	if hdr.pos != len(raw) {
		return fmt.Errorf("%w: %d trailing bytes in row group block", store.ErrCorrupt, len(raw)-hdr.pos)
	}
	return nil
}

// seek steps every cursor over n rows.
func (d *rowDecoder) seek(n int) error {
	for c := range d.cols {
		if err := d.cols[c].skipRows(columns[c].kind, n); err != nil {
			return err
		}
	}
	return nil
}

func (d *rowDecoder) str(c int) (string, error) {
	id, err := d.cols[c].uvarint()
	if err != nil {
		return "", err
	}
	return d.word(id)
}

// list reads a count-prefixed run of dictionary ids. Zero-length
// slices decode to nil: gob encodes nil and empty identically, so Save
// bytes — and digests — are unaffected.
func (d *rowDecoder) list(c int) ([]string, error) {
	r := &d.cols[c]
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	// Each id is at least a byte, so the column bounds the allocation.
	if n > uint64(len(r.buf)-r.pos) {
		return nil, r.overrun()
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.str(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// read fills rec's requested fields from the cursors' current row and
// advances their cursors to the next. IP, Round and Day are the
// caller's: the IP column is walked separately, round and day are
// constant across a segment and live in its footer.
func (d *rowDecoder) read(rec *store.Record) error {
	for c := range d.cols {
		if d.fields&columns[c].field == 0 {
			continue
		}
		if err := d.readCol(c, rec); err != nil {
			return err
		}
	}
	return nil
}

// readCol decodes column c's current row into rec.
func (d *rowDecoder) readCol(c int, rec *store.Record) (err error) {
	r := &d.cols[c]
	var v uint64
	var b []byte
	switch c {
	case colPorts:
		rec.OpenPorts, err = r.byte()
	case colFlags:
		var flags byte
		flags, err = r.byte()
		rec.Fetched = flags&flagFetched != 0
		rec.RobotsDenied = flags&flagRobots != 0
		rec.VPC = flags&flagVPC != 0
	case colScheme:
		rec.Scheme, err = d.str(c)
	case colStatus:
		v, err = r.uvarint()
		rec.HTTPStatus = int(v)
	case colFetchErr:
		rec.FetchErr, err = d.str(c)
	case colCType:
		rec.ContentType, err = d.str(c)
	case colBodyLen:
		v, err = r.uvarint()
		rec.BodyLen = int(v)
	case colBody:
		if v, err = r.uvarint(); err == nil {
			b, err = r.bytes(v)
			rec.Body = string(b)
		}
	case colPoweredBy:
		rec.PoweredBy, err = d.str(c)
	case colDesc:
		rec.Description, err = d.str(c)
	case colHdrNames:
		rec.HeaderNames, err = d.str(c)
	case colTitle:
		rec.Title, err = d.str(c)
	case colTemplate:
		rec.Template, err = d.str(c)
	case colServer:
		rec.Server, err = d.str(c)
	case colKeywords:
		rec.Keywords, err = d.str(c)
	case colGAID:
		rec.AnalyticsID, err = d.str(c)
	case colSimhash:
		if b, err = r.bytes(simhashLen); err == nil {
			rec.Simhash = simhash.Fingerprint{
				Hi: binary.BigEndian.Uint32(b[:4]),
				Lo: binary.BigEndian.Uint64(b[4:]),
			}
		}
	case colLinks:
		rec.Links, err = d.list(c)
	case colTrackers:
		rec.Trackers, err = d.list(c)
	case colSubpages:
		v, err = r.uvarint()
		rec.Subpages = int(v)
	case colCluster:
		rec.Cluster, err = r.varint()
	}
	return err
}

// ipCursor walks a group's raw IP column: row 0 is the directory's
// FirstIP, every later row a uvarint step from the one before.
type ipCursor struct {
	r    colReader
	ip   uint64
	left int // rows after the current one
}

func (g *groupInfo) ips(col []byte) ipCursor {
	return ipCursor{r: colReader{buf: col, col: "ip"}, ip: uint64(g.FirstIP), left: g.Rows - 1}
}

// next moves to the following row; false at the group's last.
func (c *ipCursor) next() (bool, error) {
	if c.left == 0 {
		return false, nil
	}
	c.left--
	d, err := c.r.uvarint()
	if err != nil {
		return false, err
	}
	if c.ip += d; d > 0xffffffff || c.ip > 0xffffffff {
		return false, fmt.Errorf("%w: IP column overflows 32 bits", store.ErrCorrupt)
	}
	return true, nil
}

// frontDecoder walks one decompressed dictionary chunk; after next,
// word holds the current word's bytes (overwritten by the next call).
type frontDecoder struct {
	r    colReader
	word []byte
}

func (d *frontDecoder) next() error {
	prefix, err := d.r.uvarint()
	if err != nil {
		return err
	}
	if prefix > uint64(len(d.word)) {
		return fmt.Errorf("%w: dictionary word shares %d bytes with a %d-byte predecessor", store.ErrCorrupt, prefix, len(d.word))
	}
	n, err := d.r.uvarint()
	if err != nil {
		return err
	}
	suffix, err := d.r.bytes(n)
	if err != nil {
		return err
	}
	d.word = append(d.word[:prefix], suffix...)
	return nil
}

// inflate decompresses a group block or dictionary chunk into dst's
// memory (see decompress), tagging a codec failure as corruption of
// the named part.
func inflate(dst, comp []byte, rawLen int, part string, i int) ([]byte, error) {
	raw, err := decompress(dst, comp, rawLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %s %d: %v", store.ErrCorrupt, part, i, err)
	}
	return raw, nil
}

func badWordID(id uint64, f *segFooter) error {
	return fmt.Errorf("%w: dictionary id %d of %d", store.ErrCorrupt, id, f.Words)
}

// decodeSegment reconstructs the round's records, with the columns of
// fields filled, from full file contents into buf's slab (fresh records
// when buf is nil), counting what it inflates in st. Round and Day are
// reproduced from the footer meta (they are constant across a round
// and not stored per record).
func decodeSegment(data []byte, f *segFooter, fields store.Fields, st *readStats, buf *store.RoundBuf) ([]*store.Record, error) {
	// Dictionary first; every string column points into it. Each word
	// is its own allocation: strings cut from one shared blob would pin
	// the blob for as long as any record is retained, and a string kept
	// from a record decoded into a reused buf must outlive the buf's
	// next round. A read of no string column leaves it empty.
	var words []string
	nChunks := 0
	if fields&dictFields != 0 {
		words, nChunks = make([]string, f.Words), len(f.Chunks)
	}
	st.chunks.Add(int64(nChunks))
	st.groups.Add(int64(len(f.Groups)))
	// Each chunk read, then each row group, inflates into its own range
	// of buf's scratch, spans[k] to spans[k+1]: the parallel workers
	// never share a byte.
	spans := make([]int, 1, nChunks+len(f.Groups)+1)
	for _, c := range f.Chunks[:nChunks] {
		spans = append(spans, spans[len(spans)-1]+c.RawLen)
	}
	for _, g := range f.Groups {
		spans = append(spans, spans[len(spans)-1]+g.RawLen)
	}
	scratch := buf.Scratch(spans[len(spans)-1])
	span := func(k int) []byte { return scratch[spans[k]:spans[k+1]] }
	err := parallel(nChunks, func(i int) error {
		c := f.Chunks[i]
		raw, err := inflate(span(i), data[c.Off:c.Off+int64(c.CompLen)], c.RawLen, "dictionary chunk", i)
		if err != nil {
			return err
		}
		fd := frontDecoder{r: colReader{buf: raw, col: "dict"}}
		for k := i * chunkWords; k < i*chunkWords+f.wordsIn(i); k++ {
			if err := fd.next(); err != nil {
				return err
			}
			words[k] = string(fd.word)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Group g fills rows [start[g], start[g+1]); they sum to Meta.Records.
	start := make([]int, len(f.Groups)+1)
	for i, g := range f.Groups {
		start[i+1] = start[i] + g.Rows
	}
	recs := buf.Records(f.Meta.Records)
	err = parallel(len(f.Groups), func(i int) error {
		g := &f.Groups[i]
		block := data[g.Off+int64(g.IPLen) : g.Off+int64(g.IPLen+g.CompLen)]
		raw, err := inflate(span(nChunks+i), block, g.RawLen, "row group", i)
		if err != nil {
			return err
		}
		dec := rowDecoder{fields: fields, word: func(id uint64) (string, error) {
			if id >= uint64(len(words)) {
				return "", badWordID(id, f)
			}
			return words[id], nil
		}}
		if err := dec.reset(raw); err != nil {
			return err
		}
		ips := g.ips(data[g.Off : g.Off+int64(g.IPLen)])
		for k := start[i]; k < start[i+1]; k++ {
			rec := recs[k]
			rec.IP = ipaddr.Addr(ips.ip)
			rec.Round = f.Meta.Index
			rec.Day = f.Meta.Day
			if err := dec.read(rec); err != nil {
				return err
			}
			if _, err := ips.next(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// readRow is the point read: the record stored for ip in the segment
// behind r, or nil. It costs a binary search of the resident group
// directory and one read of the group ip would sort into; a miss ends
// at the walk of that group's raw IP column, a hit decompresses the
// group's block, seeks the row decoder to the row and resolves the
// row's dictionary ids through the chunks they fall in.
func readRow(r io.ReaderAt, f *segFooter, ip uint32, st *readStats) (*store.Record, error) {
	gi := sort.Search(len(f.Groups), func(k int) bool { return f.Groups[k].FirstIP > ip }) - 1
	if gi < 0 || ip > f.MaxIP {
		return nil, nil
	}
	g := &f.Groups[gi]
	buf := make([]byte, g.IPLen+g.CompLen)
	if err := st.readAt(r, g.Off, buf); err != nil {
		return nil, err
	}
	row := 0
	ips := g.ips(buf[:g.IPLen])
	for ; ips.ip < uint64(ip); row++ {
		if more, err := ips.next(); err != nil || !more {
			return nil, err
		}
	}
	if ips.ip != uint64(ip) {
		return nil, nil
	}

	st.groups.Add(1)
	raw, err := inflate(nil, buf[g.IPLen:], g.RawLen, "row group", gi)
	if err != nil {
		return nil, err
	}
	// Decompressed chunks, kept for the length of this one read: a
	// row's empty fields all resolve through chunk 0.
	chunks := make([][]byte, len(f.Chunks))
	dec := rowDecoder{fields: store.AllFields, word: func(id uint64) (string, error) {
		if id >= uint64(f.Words) {
			return "", badWordID(id, f)
		}
		ci := int(id / chunkWords)
		if chunks[ci] == nil {
			c := f.Chunks[ci]
			comp := make([]byte, c.CompLen)
			if err := st.readAt(r, c.Off, comp); err != nil {
				return "", err
			}
			st.chunks.Add(1)
			if chunks[ci], err = inflate(nil, comp, c.RawLen, "dictionary chunk", ci); err != nil {
				return "", err
			}
		}
		fd := frontDecoder{r: colReader{buf: chunks[ci], col: "dict"}}
		for n := id % chunkWords; ; n-- {
			if err := fd.next(); err != nil {
				return "", err
			}
			if n == 0 {
				return string(fd.word), nil
			}
		}
	}}
	if err := dec.reset(raw); err != nil {
		return nil, err
	}
	if err := dec.seek(row); err != nil {
		return nil, err
	}
	rec := &store.Record{IP: ipaddr.Addr(ip), Round: f.Meta.Index, Day: f.Meta.Day}
	if err := dec.read(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// readAt fills buf from off. The range was proven inside the file when
// the segment was opened, so a short read is an I/O error, not
// corruption.
func readAt(r io.ReaderAt, off int64, buf []byte) error {
	if _, err := r.ReadAt(buf, off); err != nil {
		return fmt.Errorf("colstore: reading %d bytes at offset %d: %w", len(buf), off, err)
	}
	return nil
}
