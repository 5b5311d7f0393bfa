package simhash

import "testing"

// FuzzSimhash pins the fingerprint algebra on arbitrary text: the
// streaming Hash equals the tokenizing reference and is deterministic,
// the hex form round-trips, Hamming distance is a metric on the bit
// representation, and the bit accessors are mutually consistent.
func FuzzSimhash(f *testing.F) {
	f.Add("welcome to our web store")
	f.Add("the quick brown fox jumps over the lazy dog")
	f.Add("")
	f.Add("日本語テキスト with mixed scripts 123")
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	f.Fuzz(func(t *testing.T, text string) {
		fp := Hash(text)

		if again := Hash(text); again != fp {
			t.Fatalf("Hash is nondeterministic for %q", text)
		}
		if want := referenceHash(text); fp != want {
			t.Fatalf("Hash(%q) = %v, reference %v", text, fp, want)
		}

		parsed, err := ParseFingerprint(fp.String())
		if err != nil {
			t.Fatalf("ParseFingerprint(%q): %v", fp.String(), err)
		}
		if parsed != fp {
			t.Fatalf("fingerprint round-trip: %v -> %q -> %v", fp, fp.String(), parsed)
		}

		if d := Distance(fp, fp); d != 0 {
			t.Errorf("Distance(f, f) = %d, want 0", d)
		}
		other := Hash(text + " trailer")
		if Distance(fp, other) != Distance(other, fp) {
			t.Errorf("Distance is asymmetric")
		}
		if d := Distance(fp, other); d < 0 || d > Bits {
			t.Errorf("Distance = %d, outside [0, %d]", d, Bits)
		}

		for i := 0; i < Bits; i++ {
			if got := fp.SetBit(i, fp.Bit(i)); got != fp {
				t.Fatalf("SetBit(%d, Bit(%d)) changed the fingerprint", i, i)
			}
			if d := Distance(fp, fp.FlipBits(i)); d != 1 {
				t.Fatalf("flipping bit %d moved the distance by %d, want 1", i, d)
			}
		}

	})
}
