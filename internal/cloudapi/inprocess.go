package cloudapi

import (
	"context"
	"fmt"
	"net"

	"whowas/internal/blacklist"
	"whowas/internal/cloudsim"
	"whowas/internal/dnssim"
	"whowas/internal/ipaddr"
	"whowas/internal/netsim"
)

// InProcess is the in-process Cloud: the cloudsim ground truth, the
// netsim virtual network, and the blacklist feeds, composed exactly
// as core built them before the boundary existed. Campaigns through
// it are bit-identical to the pre-cloudapi platform.
type InProcess struct {
	cloud *cloudsim.Cloud
	net   *netsim.Network
	feeds *blacklist.Feeds
}

// NewInProcess builds the simulated cloud, its network, and feeds.
func NewInProcess(cfg SimConfig) (*InProcess, error) {
	cloud, err := cloudsim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("cloudapi: building cloud: %w", err)
	}
	nw, err := netsim.New(cloud)
	if err != nil {
		return nil, fmt.Errorf("cloudapi: building network: %w", err)
	}
	return &InProcess{cloud: cloud, net: nw, feeds: blacklist.BuildFeeds(cloud)}, nil
}

// DialContext implements the data plane over the virtual network.
func (p *InProcess) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return p.net.DialContext(ctx, network, address)
}

// Ranges returns the probed address space.
func (p *InProcess) Ranges() *ipaddr.RangeList { return p.cloud.Ranges() }

// RegionOf maps an address to its region ("" outside the cloud).
func (p *InProcess) RegionOf(a ipaddr.Addr) string { return p.cloud.RegionOf(a) }

// Info describes the simulated cloud's configuration.
func (p *InProcess) Info() Info {
	cfg := p.cloud.Config()
	return Info{
		Name:      cfg.Name,
		Kind:      cfg.Kind,
		Days:      cfg.Days,
		Seed:      cfg.Seed,
		BaseOctet: cfg.BaseOctet,
		Regions:   append([]RegionConfig(nil), cfg.Regions...),
	}
}

// Days returns the campaign length in simulated days.
func (p *InProcess) Days() int { return p.cloud.Days() }

// Day returns the network's current simulated day.
func (p *InProcess) Day() int { return p.net.Day() }

// SetDay advances the simulated day, dropping the previous day's
// transient-loss bookkeeping.
func (p *InProcess) SetDay(ctx context.Context, day int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if day < 0 || day >= p.cloud.Days() {
		return fmt.Errorf("cloudapi: day %d outside campaign [0,%d)", day, p.cloud.Days())
	}
	p.net.SetDay(day)
	return nil
}

// Snapshot censuses one day's ground truth.
func (p *InProcess) Snapshot(ctx context.Context, day int) (Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return Snapshot{}, err
	}
	if day < 0 || day >= p.cloud.Days() {
		return Snapshot{}, fmt.Errorf("cloudapi: day %d outside campaign [0,%d)", day, p.cloud.Days())
	}
	snap := Snapshot{Day: day, ByRegion: make(map[string]int)}
	services := make(map[uint64]struct{})
	p.cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := p.cloud.StateAt(day, a)
		if !st.Bound {
			return true
		}
		snap.Bound++
		snap.ByRegion[st.Region]++
		services[st.ServiceID] = struct{}{}
		if st.Web {
			snap.Web++
		}
		if st.Slow {
			snap.Slow++
		}
		if st.HTTPFail {
			snap.HTTPFail++
		}
		if st.Down {
			snap.Down++
		}
		return true
	})
	snap.Services = len(services)
	return snap, nil
}

// Resolver returns the ground-truth DNS resolver pinned at day.
func (p *InProcess) Resolver(day int) Resolver {
	return dnssim.NewResolver(p.cloud, day)
}

// Health always succeeds for a live in-process cloud.
func (p *InProcess) Health(ctx context.Context) error { return ctx.Err() }

// Close is a no-op: the in-process cloud holds no external resources.
func (p *InProcess) Close() error { return nil }

// Network exposes the underlying virtual network for tests that tune
// or instrument it (politeness accounting, loss rates).
func (p *InProcess) Network() *netsim.Network { return p.net }
