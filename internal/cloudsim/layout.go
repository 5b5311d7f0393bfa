package cloudsim

import (
	"fmt"

	"whowas/internal/ipaddr"
)

// PrefixInfo is the ground-truth layout of one /22 block: where it
// sits, which region advertises it, and whether it is VPC networking.
// The slice form is the cloud's entire address plan, which New builds
// the cloud from and the wire client answers RegionOf/Ranges from
// locally instead of paying a round trip per address.
type PrefixInfo struct {
	Prefix ipaddr.Prefix `json:"prefix"`
	Region string        `json:"region"`
	VPC    bool          `json:"vpc"`
}

// Layout computes the /22 address plan implied by a base octet and a
// region list without materializing a cloud: contiguous /22 blocks
// from baseOctet.0.0.0, each region taking its configured share with
// the leading VPC22 blocks marked VPC. This is exactly the plan New
// builds internally, exported so a remote cloud's client can
// reconstruct region lookups from the daemon's advertised
// configuration.
func Layout(baseOctet byte, regions []RegionConfig) ([]PrefixInfo, *ipaddr.RangeList, error) {
	next := uint32(baseOctet) << 24
	var infos []PrefixInfo
	var prefixes []ipaddr.Prefix
	for _, r := range regions {
		for i := 0; i < r.Prefixes22; i++ {
			p := ipaddr.Prefix{Addr: ipaddr.Addr(next), Bits: 22}
			infos = append(infos, PrefixInfo{Prefix: p, Region: r.Name, VPC: i < r.VPC22})
			prefixes = append(prefixes, p)
			next += 1024
		}
	}
	rl, err := ipaddr.NewRangeList(prefixes)
	if err != nil {
		return nil, nil, fmt.Errorf("cloudsim: building address layout: %w", err)
	}
	return infos, rl, nil
}
