// Package simhash implements Charikar's similarity-preserving hash
// (simhash) over text documents, as used by WhoWas to fingerprint the
// HTML content returned by cloud-hosted web servers (§4, feature 10).
//
// Two near-duplicate documents produce fingerprints at low Hamming
// distance; WhoWas uses 96-bit fingerprints and a distance threshold
// chosen with the gap statistic (§5) to group pages into clusters.
//
// The implementation is self-contained: tokenization, 64-bit FNV-based
// feature hashing extended to 96 bits, vector accumulation and
// sign quantization, plus Hamming-distance helpers.
package simhash

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// Bits is the fingerprint width used throughout WhoWas.
const Bits = 96

// Fingerprint is a 96-bit simhash value. Hi holds the most significant
// 32 bits in its low word; Lo holds the least significant 64 bits. The
// json tags are pinned because fingerprints travel inside records on
// the coord submit wire.
type Fingerprint struct {
	Hi uint32 `json:"hi"`
	Lo uint64 `json:"lo"`
}

// Zero is the fingerprint of the empty document.
var Zero = Fingerprint{}

// String renders the fingerprint as 24 lowercase hex digits.
func (f Fingerprint) String() string {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], f.Hi)
	binary.BigEndian.PutUint64(b[4:12], f.Lo)
	return hex.EncodeToString(b[:])
}

// ParseFingerprint parses the hex form produced by String.
func ParseFingerprint(s string) (Fingerprint, error) {
	if len(s) != 24 {
		return Zero, fmt.Errorf("simhash: fingerprint %q: want 24 hex digits, have %d", s, len(s))
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Zero, fmt.Errorf("simhash: fingerprint %q: %w", s, err)
	}
	return Fingerprint{
		Hi: binary.BigEndian.Uint32(raw[0:4]),
		Lo: binary.BigEndian.Uint64(raw[4:12]),
	}, nil
}

// Distance returns the Hamming distance between f and g, in [0, 96].
func Distance(f, g Fingerprint) int {
	return bits.OnesCount32(f.Hi^g.Hi) + bits.OnesCount64(f.Lo^g.Lo)
}

// Bit reports bit i of the fingerprint, with bit 0 the least
// significant bit of Lo and bit 95 the most significant bit of Hi.
func (f Fingerprint) Bit(i int) uint {
	switch {
	case i < 0 || i >= Bits:
		panic(fmt.Sprintf("simhash: bit index %d out of range", i))
	case i < 64:
		return uint(f.Lo>>uint(i)) & 1
	default:
		return uint(f.Hi>>uint(i-64)) & 1
	}
}

// SetBit returns a copy of f with bit i set to v (0 or 1).
func (f Fingerprint) SetBit(i int, v uint) Fingerprint {
	if i < 0 || i >= Bits {
		panic(fmt.Sprintf("simhash: bit index %d out of range", i))
	}
	if i < 64 {
		mask := uint64(1) << uint(i)
		if v == 0 {
			f.Lo &^= mask
		} else {
			f.Lo |= mask
		}
		return f
	}
	mask := uint32(1) << uint(i-64)
	if v == 0 {
		f.Hi &^= mask
	} else {
		f.Hi |= mask
	}
	return f
}

// FlipBits returns a copy of f with the given bit positions flipped.
// Tests use it to construct fingerprints at a known Hamming distance.
func (f Fingerprint) FlipBits(positions ...int) Fingerprint {
	for _, i := range positions {
		f = f.SetBit(i, 1-f.Bit(i))
	}
	return f
}

// fnvPair is a feature hash in progress: two independent FNV-1a style
// passes with different offset bases, so the two halves of the 96 bits
// are decorrelated. Writing a feature's bytes and then calling sum is
// featureHash of the feature.
type fnvPair struct{ a, b uint64 }

const prime64 = 1099511628211

var fnvOffsets = fnvPair{a: 14695981039346656037, b: 0x9e3779b97f4a7c15} // b: the golden ratio

func (s *fnvPair) write(c byte) {
	s.a = (s.a ^ uint64(c)) * prime64
	s.b = (s.b ^ (uint64(c) + 0x5b)) * prime64
}

// sum finishes the hash with an extra avalanche so short tokens spread
// across all 96 bits, leaving the pair as it was.
func (s fnvPair) sum() Fingerprint {
	a, b := s.a, s.b
	a ^= a >> 33
	a *= 0xff51afd7ed558ccd
	a ^= a >> 33
	b ^= b >> 29
	b *= 0x94d049bb133111eb
	b ^= b >> 32
	return Fingerprint{Hi: uint32(b), Lo: a}
}

// featureHash maps one token to a 96-bit hash.
func featureHash(token string) Fingerprint {
	s := fnvOffsets
	for i := 0; i < len(token); i++ {
		s.write(token[i])
	}
	return s.sum()
}

// hasher accumulates features and quantizes them into a Fingerprint.
// The zero value is ready to use.
type hasher struct {
	sums [Bits]int64
	n    int
}

// add accumulates one feature of weight 1: bit b of its hash adds 1 to
// sum b when set and -1 when clear, computed as 2*bit-1. This loop
// dominates hashing CPU, so it avoids per-bit branches.
func (h *hasher) add(fp Fingerprint) {
	lo := fp.Lo
	for i := 0; i < 64; i++ {
		h.sums[i] += int64(lo&1)<<1 - 1
		lo >>= 1
	}
	hi := fp.Hi
	for i := 64; i < Bits; i++ {
		h.sums[i] += int64(hi&1)<<1 - 1
		hi >>= 1
	}
	h.n++
}

// Fingerprint quantizes the accumulated sums: bit i is 1 iff the i-th
// component is positive. The empty hasher yields Zero.
func (h *hasher) Fingerprint() Fingerprint {
	var f Fingerprint
	if h.n == 0 {
		return f
	}
	for i := 0; i < 64; i++ {
		if h.sums[i] > 0 {
			f.Lo |= uint64(1) << uint(i)
		}
	}
	for i := 0; i < 32; i++ {
		if h.sums[64+i] > 0 {
			f.Hi |= uint32(1) << uint(i)
		}
	}
	return f
}

// Hash computes the simhash of a document using word-shingle features.
// Tokens are lowercased runs of Unicode letters and digits; features
// are the tokens themselves plus 2-shingles (two adjacent tokens
// joined by one space), each with weight 1, which matches the
// webpage-comparison usage cited by the paper [26-28]. It makes one
// pass and no allocation: each lowered rune's bytes feed the token's
// hash and the shingle's, which resumes the previous token's hash
// after a space.
func Hash(text string) Fingerprint {
	var h hasher
	var tok, prev, shingle fnvPair
	inToken, hasPrev := false, false
	endToken := func() {
		if inToken {
			h.add(tok.sum())
			if hasPrev {
				h.add(shingle.sum())
			}
			prev, hasPrev, inToken = tok, true, false
		}
	}
	var enc [utf8.UTFMax]byte
	for _, r := range text {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			endToken()
			continue
		}
		if !inToken {
			inToken, tok, shingle = true, fnvOffsets, prev
			shingle.write(' ')
		}
		for _, c := range enc[:utf8.EncodeRune(enc[:], unicode.ToLower(r))] {
			tok.write(c)
			shingle.write(c)
		}
	}
	endToken()
	return h.Fingerprint()
}
