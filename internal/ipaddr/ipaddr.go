// Package ipaddr supplies the IPv4 address-space utilities WhoWas
// needs: CIDR prefixes and ordered range lists for the clouds'
// advertised ranges (the EC2/Azure public ranges that seed the scanner,
// §4/§6), prefix aggregation at /22 and
// /24 granularity (Table 2 counts VPC usage by /22; the §4 timeout
// experiment samples per /24), range iteration for task lists, and
// opt-out blacklists.
//
// Addresses are represented as uint32 in host order, which keeps range
// arithmetic and set membership allocation-free across millions of IPs.
package ipaddr

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("ipaddr: %w", err)
	}
	if !a.Is4() {
		return 0, fmt.Errorf("ipaddr: %q is not IPv4", s)
	}
	b := a.As4()
	return Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])), nil
}

// MustParseAddr is ParseAddr, panicking on error; for constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address as dotted-quad.
func (a Addr) String() string {
	return string(a.AppendTo(make([]byte, 0, len("255.255.255.255"))))
}

// AppendTo appends the dotted-quad form of the address to b.
func (a Addr) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	b = strconv.AppendUint(append(b, '.'), uint64(byte(a>>16)), 10)
	b = strconv.AppendUint(append(b, '.'), uint64(byte(a>>8)), 10)
	return strconv.AppendUint(append(b, '.'), uint64(byte(a)), 10)
}

// Prefix24 returns the address's /24 prefix (the low 8 bits cleared).
func (a Addr) Prefix24() Prefix { return Prefix{Addr: a &^ 0xff, Bits: 24} }

// Prefix22 returns the address's /22 prefix.
func (a Addr) Prefix22() Prefix { return Prefix{Addr: a &^ 0x3ff, Bits: 22} }

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Addr Addr // network address (host bits zero)
	Bits int  // prefix length, 0..32
}

// ParsePrefix parses "a.b.c.d/n" CIDR notation and normalizes the
// network address (host bits cleared).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipaddr: prefix %q missing '/'", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	var bits int
	if _, err := fmt.Sscanf(s[slash+1:], "%d", &bits); err != nil || bits < 0 || bits > 32 ||
		fmt.Sprintf("%d", bits) != s[slash+1:] {
		return Prefix{}, fmt.Errorf("ipaddr: prefix %q has bad length", s)
	}
	return Prefix{Addr: addr & Mask(bits), Bits: bits}, nil
}

// MustParsePrefix is ParsePrefix, panicking on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the network mask for a prefix length.
func Mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return 0xffffffff
	}
	return Addr(^uint32(0) << uint(32-bits))
}

// String renders CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool { return a&Mask(p.Bits) == p.Addr }

// Size returns the number of addresses in the prefix.
func (p Prefix) Size() uint64 { return uint64(1) << uint(32-p.Bits) }

// First returns the first address of the block.
func (p Prefix) First() Addr { return p.Addr }

// Last returns the last address of the block.
func (p Prefix) Last() Addr { return p.Addr + Addr(p.Size()-1) }

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr) || q.Contains(p.Addr)
}

// RangeList is an ordered set of prefixes, e.g. a provider's advertised
// public IP ranges. Prefixes are kept sorted by network address.
type RangeList struct {
	prefixes []Prefix
	total    uint64
}

// NewRangeList builds a range list, rejecting overlapping prefixes
// (advertised ranges never overlap; an overlap indicates a layout
// error and would double-count IPs in every percentage the analyses
// report).
func NewRangeList(prefixes []Prefix) (*RangeList, error) {
	ps := append([]Prefix(nil), prefixes...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Addr < ps[j].Addr })
	var total uint64
	for i, p := range ps {
		if i > 0 && ps[i-1].Overlaps(p) {
			return nil, fmt.Errorf("ipaddr: overlapping prefixes %s and %s", ps[i-1], p)
		}
		total += p.Size()
	}
	return &RangeList{prefixes: ps, total: total}, nil
}

// Prefixes returns the sorted prefixes (shared slice; callers must not
// modify).
func (r *RangeList) Prefixes() []Prefix { return r.prefixes }

// Total returns the number of addresses covered.
func (r *RangeList) Total() uint64 { return r.total }

// Each calls fn for every address in the list, in ascending order,
// stopping early if fn returns false.
func (r *RangeList) Each(fn func(Addr) bool) {
	for _, p := range r.prefixes {
		last := p.Last()
		for a := p.First(); ; a++ {
			if !fn(a) {
				return
			}
			if a == last {
				break
			}
		}
	}
}

// AtIndex returns the idx-th address of the enumeration.
func (r *RangeList) AtIndex(idx int64) (Addr, error) {
	if idx < 0 || uint64(idx) >= r.total {
		return 0, fmt.Errorf("ipaddr: index %d out of range [0,%d)", idx, r.total)
	}
	rem := uint64(idx)
	for _, p := range r.prefixes {
		if rem < p.Size() {
			return p.First() + Addr(rem), nil
		}
		rem -= p.Size()
	}
	panic("ipaddr: unreachable")
}

// GroupBy24 returns the set of /24 prefixes the list covers (each
// covered at least partially), ascending. The §4 timeout experiment
// samples 5% of IPs from each /24.
func (r *RangeList) GroupBy24() []Prefix {
	var out []Prefix
	for _, p := range r.prefixes {
		first := p.First() &^ 0xff
		last := p.Last() &^ 0xff
		for a := first; ; a += 256 {
			out = append(out, Prefix{Addr: a, Bits: 24})
			if a == last {
				break
			}
		}
	}
	return out
}

// Set is a mutable set of addresses, used for the scanner's opt-out
// blacklist (§4: "a blacklist of IP addresses that should not be
// scanned") and for analysis scratch sets.
type Set struct {
	m map[Addr]struct{}
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{m: make(map[Addr]struct{})} }

// Add inserts an address.
func (s *Set) Add(a Addr) { s.m[a] = struct{}{} }

// Contains reports membership. A nil set contains nothing, so an
// absent blacklist is simply nil.
func (s *Set) Contains(a Addr) bool {
	if s == nil {
		return false
	}
	_, ok := s.m[a]
	return ok
}

// Len returns the element count; 0 for nil.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}
