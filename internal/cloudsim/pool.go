package cloudsim

import (
	"math/rand"
	"sort"

	"whowas/internal/ipaddr"
)

// addressSpace lays the configured regions out over contiguous /22
// blocks. An address's block index, (a-base)>>10, locates both its
// layout entry in prefixes and its runs in the cloud's per-block runs.
type addressSpace struct {
	prefixes []PrefixInfo
	ranges   *ipaddr.RangeList
}

// newAddressSpace carves BaseOctet.0.0.0 onward into consecutive /22
// blocks, assigning each region its configured share and marking the
// leading VPC22 blocks of each region as VPC. The plan itself comes
// from Layout so remote clients reconstructing it stay in lockstep.
func newAddressSpace(cfg *Config) (*addressSpace, error) {
	infos, rl, err := Layout(cfg.BaseOctet, cfg.Regions)
	if err != nil {
		return nil, err
	}
	return &addressSpace{prefixes: infos, ranges: rl}, nil
}

// block returns the index of the /22 block holding a, or -1 when a is
// outside the cloud.
func (as *addressSpace) block(a ipaddr.Addr) int {
	if len(as.prefixes) == 0 || a < as.prefixes[0].Prefix.Addr {
		return -1
	}
	if b := int((a - as.prefixes[0].Prefix.Addr) >> 10); b < len(as.prefixes) {
		return b
	}
	return -1
}

// pool hands out free addresses per (region, vpc) class. Acquisition is
// random (seeded) so released IPs are reassigned unpredictably, which
// is what creates cross-tenant IP churn.
type pool struct {
	rng   *rand.Rand
	space *addressSpace
	free  map[poolKey][]ipaddr.Addr
}

type poolKey struct {
	region string
	vpc    bool
}

func newPool(as *addressSpace, rng *rand.Rand) *pool {
	p := &pool{rng: rng, space: as, free: make(map[poolKey][]ipaddr.Addr)}
	for _, pi := range as.prefixes {
		k := poolKey{pi.Region, pi.VPC}
		last := pi.Prefix.Last()
		for a := pi.Prefix.First(); ; a++ {
			p.free[k] = append(p.free[k], a)
			if a == last {
				break
			}
		}
	}
	// Shuffle each free list once so sequential acquisition is already
	// scattered across the region's prefixes. Iterate classes in a
	// deterministic order: map iteration order would otherwise consume
	// the rng differently on every run.
	keys := make([]poolKey, 0, len(p.free))
	for k := range p.free {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].region != keys[j].region {
			return keys[i].region < keys[j].region
		}
		return !keys[i].vpc && keys[j].vpc
	})
	for _, k := range keys {
		list := p.free[k]
		p.rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	return p
}

// acquire removes and returns one free address of the given class.
func (p *pool) acquire(region string, vpc bool) (ipaddr.Addr, bool) {
	k := poolKey{region, vpc}
	list := p.free[k]
	if len(list) == 0 {
		return 0, false
	}
	a := list[len(list)-1]
	p.free[k] = list[:len(list)-1]
	return a, true
}

// release returns an address to the free list of its block's class,
// which is the class it was acquired from, at a random position, so
// the next tenant to acquire from the region may receive a recently
// released IP (ownership churn) or a long-idle one.
func (p *pool) release(a ipaddr.Addr) {
	pi := &p.space.prefixes[p.space.block(a)]
	k := poolKey{pi.Region, pi.VPC}
	list := append(p.free[k], a)
	// Swap the new tail with a random element to avoid LIFO reuse.
	i := p.rng.Intn(len(list))
	list[i], list[len(list)-1] = list[len(list)-1], list[i]
	p.free[k] = list
}
