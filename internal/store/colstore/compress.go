// The segment byte compressor: an LZ77-family byte codec in the
// snappy/LZ4 spirit — single-probe hash matching with a one-byte lazy
// step, literal runs and back-references, no entropy stage — small
// enough to own outright (the repo takes no dependencies) and fast
// enough that column encoding stays I/O-bound. The format is
// deliberately simple:
//
//	control byte c < 0x80: literal run of c+1 bytes follows
//	control byte c >= 0x80: copy of (c&0x7f)+minMatch bytes from
//	    offset o (2 bytes little-endian, 1..maxOffset) back
//
// Compression is deterministic: the same input always yields the same
// output, so segment bytes — like everything else in the store — are
// reproducible across runs.
package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	minMatch      = 4
	maxLiteralRun = 128 // control 0x00..0x7f
	maxCopyLen    = 0x7f + minMatch
	maxOffset     = 1<<16 - 1
	hashBits      = 14
)

// hash4 mixes 4 bytes into a table index.
func hash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// compress appends the compressed form of src to dst, matching with a
// fresh table.
func compress(dst, src []byte) []byte {
	return new(compressor).compress(dst, src)
}

// compressor is compress with a match table kept from one input to the
// next: a segment compresses 21 streams per row group and a stream per
// dictionary chunk, most of them far smaller than the 64 KiB table a
// fresh compress zeroes. Each input's positions are entered offset by base,
// the total length of the inputs before it, so an entry left by an
// earlier input reads as "none yet" and the output is byte-identical to
// a fresh compress of the input alone.
type compressor struct {
	// table maps a 4-byte hash to base plus one past the last position
	// that hashed there; entries at or below base are stale.
	table [1 << hashBits]int32
	base  int32
}

// compress appends the compressed form of src to dst.
func (z *compressor) compress(dst, src []byte) []byte {
	if int64(z.base)+int64(len(src)) >= math.MaxInt32 {
		z.table, z.base = [1 << hashBits]int32{}, 0
	}
	table, base := &z.table, z.base
	litStart := 0
	emitLiterals := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > maxLiteralRun {
				n = maxLiteralRun
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	// match returns the length and distance of the table's candidate
	// match at i (0 if it has none) and enters i into the table.
	match := func(i int) (length, dist int) {
		h := hash4(load32(src, i))
		cand := int(table[h]-base) - 1
		table[h] = base + int32(i+1)
		if cand < 0 || i-cand > maxOffset || load32(src, cand) != load32(src, i) {
			return 0, 0
		}
		length = minMatch
		for i+length < len(src) && length < maxCopyLen && src[cand+length] == src[i+length] {
			length++
		}
		return length, i - cand
	}
	i := 0
	for i+minMatch <= len(src) {
		length, dist := match(i)
		if length == 0 {
			i++
			continue
		}
		// Lazy step: a longer match one byte on is worth a literal. It
		// is what keeps 512-row groups no larger than the whole-round
		// blocks they replaced (ROADMAP item 2(a) has the table).
		for length < maxCopyLen && i+1+minMatch <= len(src) {
			l, d := match(i + 1)
			if l <= length {
				break
			}
			i, length, dist = i+1, l, d
		}
		emitLiterals(i)
		dst = append(dst, byte(0x80|(length-minMatch)), byte(dist), byte(dist>>8))
		i += length
		litStart = i
	}
	emitLiterals(len(src))
	z.base += int32(len(src))
	return dst
}

// maxRawLen bounds what compLen compressed bytes can expand to: the
// densest token is a 3-byte copy yielding maxCopyLen bytes. A declared
// raw length above it is a lie, and is refused before it sizes a buffer.
func maxRawLen(compLen int) int { return (compLen/3 + 1) * maxCopyLen }

// decompress expands src into exactly rawLen bytes, bounds-checking
// every step: mangled input returns an error, never a panic or an
// overrun. The output is written over dst's first rawLen bytes when
// dst's capacity holds them (a fresh buffer otherwise) and never past
// them, so callers may hand out adjacent ranges of one buffer.
func decompress(dst, src []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || rawLen > maxRawLen(len(src)) {
		return nil, fmt.Errorf("colstore: raw length %d impossible for %d compressed bytes", rawLen, len(src))
	}
	if cap(dst) < rawLen {
		dst = make([]byte, 0, rawLen)
	}
	// Capped at rawLen: output running long reallocates rather than
	// writing into the caller's next range, and fails the length check.
	dst = dst[:0:rawLen]
	i := 0
	for i < len(src) {
		c := src[i]
		i++
		if c < 0x80 {
			n := int(c) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("colstore: literal run overruns input")
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		length := int(c&0x7f) + minMatch
		if i+2 > len(src) {
			return nil, fmt.Errorf("colstore: copy overruns input")
		}
		off := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		if off == 0 || off > len(dst) {
			return nil, fmt.Errorf("colstore: copy offset %d outside window of %d", off, len(dst))
		}
		if off >= length {
			dst = append(dst, dst[len(dst)-off:len(dst)-off+length]...)
			continue
		}
		// Overlapping copies (off < length) are legal and replicate
		// runs, so copy byte by byte.
		for j := 0; j < length; j++ {
			dst = append(dst, dst[len(dst)-off])
		}
	}
	if len(dst) != rawLen {
		return nil, fmt.Errorf("colstore: decompressed %d bytes, want %d", len(dst), rawLen)
	}
	return dst, nil
}
