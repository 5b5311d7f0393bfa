package simhash

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroFingerprint(t *testing.T) {
	if got := Hash(""); got != Zero {
		t.Errorf("Hash(\"\") = %v, want Zero", got)
	}
	if d := Distance(Zero, Zero); d != 0 {
		t.Errorf("Distance(Zero, Zero) = %d, want 0", d)
	}
}

func TestHashDeterministic(t *testing.T) {
	doc := "<html><head><title>Welcome to nginx</title></head><body>It works!</body></html>"
	a := Hash(doc)
	b := Hash(doc)
	if a != b {
		t.Fatalf("Hash not deterministic: %v != %v", a, b)
	}
	if a == Zero {
		t.Fatal("nonempty document hashed to Zero")
	}
}

func TestIdenticalDocsZeroDistance(t *testing.T) {
	doc := strings.Repeat("cloud web service deployment measurement ", 40)
	if d := Distance(Hash(doc), Hash(doc)); d != 0 {
		t.Errorf("identical docs at distance %d, want 0", d)
	}
}

func TestSimilarDocsCloserThanDissimilar(t *testing.T) {
	base := strings.Repeat("wordpress blog entry about measuring clouds over time with probes ", 30)
	similar := base + " one extra sentence appended at the end"
	dissimilar := strings.Repeat("completely different corpus of financial ledger entries and invoices ", 30)

	dSim := Distance(Hash(base), Hash(similar))
	dDiff := Distance(Hash(base), Hash(dissimilar))
	if dSim >= dDiff {
		t.Errorf("similar distance %d not below dissimilar distance %d", dSim, dDiff)
	}
	if dSim > 10 {
		t.Errorf("near-duplicate documents at distance %d, want <= 10", dSim)
	}
	if dDiff < 20 {
		t.Errorf("unrelated documents at distance %d, want >= 20", dDiff)
	}
}

func TestDistanceBounds(t *testing.T) {
	all := Fingerprint{Hi: 0xffffffff, Lo: ^uint64(0)}
	if d := Distance(Zero, all); d != Bits {
		t.Errorf("Distance(Zero, all-ones) = %d, want %d", d, Bits)
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Symmetry.
	sym := func(ah uint32, al uint64, bh uint32, bl uint64) bool {
		a := Fingerprint{Hi: ah, Lo: al}
		b := Fingerprint{Hi: bh, Lo: bl}
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	// Identity of indiscernibles.
	ident := func(h uint32, l uint64) bool {
		f := Fingerprint{Hi: h, Lo: l}
		return Distance(f, f) == 0
	}
	if err := quick.Check(ident, cfg); err != nil {
		t.Errorf("identity: %v", err)
	}
	// Triangle inequality.
	tri := func(ah uint32, al uint64, bh uint32, bl uint64, ch uint32, cl uint64) bool {
		a := Fingerprint{Hi: ah, Lo: al}
		b := Fingerprint{Hi: bh, Lo: bl}
		c := Fingerprint{Hi: ch, Lo: cl}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(tri, cfg); err != nil {
		t.Errorf("triangle: %v", err)
	}
	// Range.
	rng := func(ah uint32, al uint64, bh uint32, bl uint64) bool {
		d := Distance(Fingerprint{Hi: ah, Lo: al}, Fingerprint{Hi: bh, Lo: bl})
		return d >= 0 && d <= Bits
	}
	if err := quick.Check(rng, cfg); err != nil {
		t.Errorf("range: %v", err)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	prop := func(h uint32, l uint64) bool {
		f := Fingerprint{Hi: h, Lo: l}
		got, err := ParseFingerprint(f.String())
		return err == nil && got == f
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseFingerprintErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", strings.Repeat("0", 23), strings.Repeat("0", 25), strings.Repeat("zz", 12)} {
		if _, err := ParseFingerprint(bad); err == nil {
			t.Errorf("ParseFingerprint(%q) succeeded, want error", bad)
		}
	}
}

func TestBitAndSetBit(t *testing.T) {
	var f Fingerprint
	for _, i := range []int{0, 1, 31, 32, 63, 64, 65, 95} {
		g := f.SetBit(i, 1)
		if g.Bit(i) != 1 {
			t.Errorf("SetBit(%d,1).Bit(%d) = 0", i, i)
		}
		if d := Distance(f, g); d != 1 {
			t.Errorf("flipping bit %d changed distance by %d, want 1", i, d)
		}
		if h := g.SetBit(i, 0); h != f {
			t.Errorf("SetBit(%d,0) did not restore fingerprint", i)
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	for _, i := range []int{-1, 96, 200} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			Zero.Bit(i)
		}()
	}
}

func TestFlipBitsDistance(t *testing.T) {
	prop := func(h uint32, l uint64, rawPos []uint8) bool {
		f := Fingerprint{Hi: h, Lo: l}
		seen := map[int]bool{}
		var pos []int
		for _, p := range rawPos {
			i := int(p) % Bits
			if !seen[i] {
				seen[i] = true
				pos = append(pos, i)
			}
		}
		g := f.FlipBits(pos...)
		return Distance(f, g) == len(pos)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"  multiple   spaces\tand\nnewlines ", []string{"multiple", "spaces", "and", "newlines"}},
		{"CamelCase stays one token", []string{"camelcase", "stays", "one", "token"}},
		{"mixed123 tokens 456", []string{"mixed123", "tokens", "456"}},
		{"<html lang=\"en\">", []string{"html", "lang", "en"}},
	}
	for _, c := range cases {
		got := tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestHasherWeights(t *testing.T) {
	// A heavily weighted feature should dominate the fingerprint.
	var h hasher
	h.Add("dominant", 1000)
	h.Add("noise", 1)
	dominant := featureHash("dominant")
	if d := Distance(h.Fingerprint(), dominant); d != 0 {
		t.Errorf("weighted hasher at distance %d from dominant feature, want 0", d)
	}
}

func TestHasherIgnoresInvalid(t *testing.T) {
	var h hasher
	h.Add("", 5)
	h.Add("tok", 0)
	h.Add("tok", -3)
	if h.Features() != 0 {
		t.Errorf("invalid adds counted: %d features", h.Features())
	}
	if h.Fingerprint() != Zero {
		t.Error("invalid adds produced nonzero fingerprint")
	}
}

func TestFeatureHashDispersion(t *testing.T) {
	// Feature hashes of distinct tokens should differ in roughly half
	// their bits on average; check the mean is within a loose band.
	rng := rand.New(rand.NewSource(1))
	const trials = 200
	var total int
	for i := 0; i < trials; i++ {
		a := featureHash(randWord(rng))
		b := featureHash(randWord(rng))
		total += Distance(a, b)
	}
	mean := float64(total) / trials
	if mean < 36 || mean > 60 {
		t.Errorf("mean pairwise feature-hash distance %.1f outside [36,60]", mean)
	}
}

func randWord(rng *rand.Rand) string {
	n := 3 + rng.Intn(10)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func BenchmarkHash4KB(b *testing.B) {
	doc := strings.Repeat("typical landing page markup with navigation and footer text ", 70)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hash(doc)
	}
}

func BenchmarkDistance(b *testing.B) {
	f := Hash("page one")
	g := Hash("page two")
	for i := 0; i < b.N; i++ {
		Distance(f, g)
	}
}
