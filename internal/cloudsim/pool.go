package cloudsim

import (
	"math/rand"
	"sort"

	"whowas/internal/ipaddr"
)

// prefixInfo records the ground truth for one /22 block.
type prefixInfo struct {
	prefix ipaddr.Prefix
	region string
	vpc    bool
}

// addressSpace lays the configured regions out over contiguous /22
// blocks and answers region/VPC lookups for any address.
type addressSpace struct {
	prefixes []prefixInfo
	ranges   *ipaddr.RangeList
	regions  []string
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
	as := &addressSpace{ranges: rl}
	for _, r := range cfg.Regions {
		as.regions = append(as.regions, r.Name)
	}
	as.prefixes = make([]prefixInfo, len(infos))
	for i, pi := range infos {
		as.prefixes[i] = prefixInfo{prefix: pi.Prefix, region: pi.Region, vpc: pi.VPC}
	}
	return as, nil
}

// lookup returns the prefix info covering a, or nil when a is outside
// the cloud.
func (as *addressSpace) lookup(a ipaddr.Addr) *prefixInfo {
	// Prefixes are contiguous /22s starting at prefixes[0]; index directly.
	if len(as.prefixes) == 0 {
		return nil
	}
	base := as.prefixes[0].prefix.Addr
	if a < base {
		return nil
	}
	idx := int((a - base) >> 10)
	if idx >= len(as.prefixes) {
		return nil
	}
	return &as.prefixes[idx]
}

// pool hands out free addresses per (region, vpc) class. Acquisition is
// random (seeded) so released IPs are reassigned unpredictably, which
// is what creates cross-tenant IP churn.
type pool struct {
	rng  *rand.Rand
	free map[poolKey][]ipaddr.Addr
}

type poolKey struct {
	region string
	vpc    bool
}

func newPool(as *addressSpace, rng *rand.Rand) *pool {
	p := &pool{rng: rng, free: make(map[poolKey][]ipaddr.Addr)}
	for _, pi := range as.prefixes {
		k := poolKey{pi.region, pi.vpc}
		last := pi.prefix.Last()
		for a := pi.prefix.First(); ; a++ {
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

// release returns an address to its class's free list at a random
// position, so the next tenant to acquire from the region may receive
// a recently released IP (ownership churn) or a long-idle one.
func (p *pool) release(a ipaddr.Addr, region string, vpc bool) {
	k := poolKey{region, vpc}
	list := append(p.free[k], a)
	// Swap the new tail with a random element to avoid LIFO reuse.
	i := p.rng.Intn(len(list))
	list[i], list[len(list)-1] = list[len(list)-1], list[i]
	p.free[k] = list
}
