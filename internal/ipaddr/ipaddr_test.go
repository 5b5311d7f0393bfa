package ipaddr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("54.208.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "54.208.0.1" {
		t.Errorf("round trip = %q", a.String())
	}
	for _, bad := range []string{"", "1.2.3", "256.1.1.1", "::1", "1.2.3.4.5", "a.b.c.d"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) succeeded", bad)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	prop := func(v uint32) bool {
		a := Addr(v)
		got, err := ParseAddr(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

var stringSink string

// TestAddrStringMatchesPrintf holds the fmt-free String and AppendTo
// to the %d.%d.%d.%d rendering they replaced: every octet width and
// edge on each position, then random addresses, each also parsed back.
func TestAddrStringMatchesPrintf(t *testing.T) {
	octets := []byte{0, 9, 10, 99, 100, 255}
	var addrs []Addr
	for _, a := range octets {
		for _, b := range octets {
			for _, c := range octets {
				for _, d := range octets {
					addrs = append(addrs, Addr(uint32(a)<<24|uint32(b)<<16|uint32(c)<<8|uint32(d)))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 10000; i++ {
		addrs = append(addrs, Addr(rng.Uint32()))
	}
	for _, a := range addrs {
		want := fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		if got := a.String(); got != want {
			t.Fatalf("Addr(%#x).String() = %q, want %q", uint32(a), got, want)
		}
		if got := string(a.AppendTo([]byte("x:"))); got != "x:"+want {
			t.Fatalf("Addr(%#x).AppendTo = %q, want %q", uint32(a), got, "x:"+want)
		}
		if back, err := ParseAddr(a.String()); err != nil || back != a {
			t.Fatalf("ParseAddr(%q) = %v, %v; want %v", a.String(), back, err, a)
		}
	}
	a := MustParseAddr("255.255.255.255")
	if n := testing.AllocsPerRun(100, func() { stringSink = a.String() }); n != 1 {
		t.Errorf("String allocates %v times, want 1", n)
	}
}

func TestPrefixParse(t *testing.T) {
	p, err := ParsePrefix("10.1.2.3/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.1.2.0/24" { // host bits cleared
		t.Errorf("normalized = %q", p.String())
	}
	if p.Size() != 256 {
		t.Errorf("Size = %d", p.Size())
	}
	for _, bad := range []string{"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x", "10.0.0.0/08"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.168.4.0/22")
	if !p.Contains(MustParseAddr("192.168.4.0")) || !p.Contains(MustParseAddr("192.168.7.255")) {
		t.Error("endpoints not contained")
	}
	if p.Contains(MustParseAddr("192.168.8.0")) || p.Contains(MustParseAddr("192.168.3.255")) {
		t.Error("outside addresses contained")
	}
	if p.First() != MustParseAddr("192.168.4.0") || p.Last() != MustParseAddr("192.168.7.255") {
		t.Errorf("First/Last = %v/%v", p.First(), p.Last())
	}
}

func TestMaskEdges(t *testing.T) {
	if Mask(0) != 0 {
		t.Error("Mask(0)")
	}
	if Mask(32) != 0xffffffff {
		t.Error("Mask(32)")
	}
	if Mask(24) != 0xffffff00 {
		t.Error("Mask(24)")
	}
}

func TestPrefix22And24(t *testing.T) {
	a := MustParseAddr("54.208.37.200")
	if got := a.Prefix24().String(); got != "54.208.37.0/24" {
		t.Errorf("Prefix24 = %s", got)
	}
	if got := a.Prefix22().String(); got != "54.208.36.0/22" {
		t.Errorf("Prefix22 = %s", got)
	}
}

func TestRangeListRejectsOverlap(t *testing.T) {
	_, err := NewRangeList([]Prefix{
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.4.0/24"),
	})
	if err == nil {
		t.Fatal("overlapping prefixes accepted")
	}
}

func TestRangeListEachCount(t *testing.T) {
	rl, _ := NewRangeList([]Prefix{
		MustParsePrefix("10.0.0.0/30"),
		MustParsePrefix("10.0.1.0/31"),
	})
	var seen []Addr
	rl.Each(func(a Addr) bool {
		seen = append(seen, a)
		return true
	})
	if len(seen) != 6 {
		t.Fatalf("Each visited %d addrs, want 6", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatal("Each not ascending")
		}
	}
	// Early stop.
	n := 0
	rl.Each(func(Addr) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestIndexAtIndexInverse(t *testing.T) {
	rl, _ := NewRangeList([]Prefix{
		MustParsePrefix("23.20.0.0/30"),
		MustParsePrefix("54.208.0.0/29"),
	})
	total := int64(rl.Total())
	if total != 12 {
		t.Fatalf("Total = %d", total)
	}
	var i int64
	rl.Each(func(want Addr) bool {
		a, err := rl.AtIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		if a != want {
			t.Errorf("AtIndex(%d) = %s, want %s (Each order)", i, a, want)
		}
		i++
		return true
	})
	if _, err := rl.AtIndex(total); err == nil {
		t.Error("AtIndex(total) succeeded")
	}
	if _, err := rl.AtIndex(-1); err == nil {
		t.Error("AtIndex(-1) succeeded")
	}
}

func TestGroupBy24(t *testing.T) {
	rl, _ := NewRangeList([]Prefix{
		MustParsePrefix("10.0.0.0/22"), // 4 /24s
		MustParsePrefix("10.1.0.128/25"),
	})
	got := GroupStrings(rl.GroupBy24())
	want := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.1.0.0/24"}
	if len(got) != len(want) {
		t.Fatalf("GroupBy24 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("GroupBy24[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// GroupStrings is a test helper rendering prefixes as strings.
func GroupStrings(ps []Prefix) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	a := MustParseAddr("1.2.3.4")
	if s.Contains(a) || s.Len() != 0 {
		t.Error("fresh set not empty")
	}
	s.Add(a)
	s.Add(a)
	if !s.Contains(a) || s.Len() != 1 {
		t.Error("Add failed or double-counted")
	}
}

func TestNilSet(t *testing.T) {
	var s *Set
	if s.Contains(0) {
		t.Error("nil set contains address")
	}
	if s.Len() != 0 {
		t.Error("nil set Len != 0")
	}
}
