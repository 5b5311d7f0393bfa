// Package cloudapi is the transport-agnostic boundary between WhoWas
// and the cloud it measures. Everything above this seam — the
// campaign engine, the fault injector, the CLIs — consumes a cloud
// only through the Cloud interface, which splits into two planes:
//
//   - the data plane: the DialContext contract the scanner and
//     fetcher already speak (netsim.Dialer), behind which tenant
//     listeners serve HTTP/TLS/SSH;
//   - the control/introspection plane: configuration and address
//     layout (Info), day scheduling (SetDay), ground-truth snapshots,
//     DNS resolution for cartography, and health.
//
// Two implementations exist. InProcess wraps the simulators exactly
// as core composed them before this boundary existed, so in-process
// campaigns are bit-for-bit what they always were. Client speaks to a
// whowas-cloudd daemon over real TCP: the data plane asks the daemon
// for dial verdicts over one persistent, pipelined probe channel per
// listener and opens a tunnel onto the daemon's simulated network only
// for a connection somebody uses (wire.go), and the control plane is
// JSON over HTTP. The two are
// interchangeable by construction — the conformance suite runs both,
// and the cross-process identity gate requires a seeded campaign to
// produce byte-identical store digests either way.
package cloudapi

import (
	"context"
	"fmt"

	"whowas/internal/blacklist"
	"whowas/internal/cloudsim"
	"whowas/internal/dnssim"
	"whowas/internal/ipaddr"
	"whowas/internal/netsim"
	"whowas/internal/websim"
)

// Dialer is the data-plane contract, netsim.Dialer (the shape of
// http.Transport.DialContext).
type Dialer = netsim.Dialer

// Resolver answers EC2-style public-DNS queries for the cartography
// sweep. *dnssim.Resolver satisfies it; the wire client answers over
// the daemon's control plane.
type Resolver interface {
	LookupPublicName(ctx context.Context, name string) (dnssim.Response, error)
}

// Cloud is the full scanner-facing cloud surface.
type Cloud interface {
	// Data plane.
	Dialer

	// Address layout. These are pure functions of the cloud's
	// configuration; the wire client answers them locally from Info.
	Ranges() *ipaddr.RangeList
	RegionOf(a ipaddr.Addr) string

	// Control plane.
	Info() Info
	Days() int
	Day() int
	SetDay(ctx context.Context, day int) error
	Snapshot(ctx context.Context, day int) (Snapshot, error)
	Resolver(day int) Resolver
	Health(ctx context.Context) error
	Close() error
}

// Info describes a cloud's identity and static layout — everything a
// client needs to reconstruct Ranges/RegionOf without talking
// to the data plane.
type Info struct {
	Name      string           `json:"name"`
	Kind      websim.CloudKind `json:"kind"`
	Days      int              `json:"days"`
	Seed      int64            `json:"seed"`
	BaseOctet byte             `json:"base_octet"`
	Regions   []RegionConfig   `json:"regions"`
	// DataAddrs lists the daemon's data-plane listener addresses
	// (empty for in-process clouds).
	DataAddrs []string `json:"data_addrs,omitempty"`
}

// IsEC2Like reports whether the cloud follows EC2-style semantics
// (public DNS names, VPC-vs-classic cartography).
func (i Info) IsEC2Like() bool { return i.Kind == websim.EC2Like }

// Snapshot is a ground-truth census of one simulated day, served by
// the control plane for operational checks and accuracy baselines.
type Snapshot struct {
	Day      int            `json:"day"`
	Bound    int            `json:"bound"`
	Web      int            `json:"web"`
	Slow     int            `json:"slow"`
	HTTPFail int            `json:"http_fail"`
	Down     int            `json:"down"`
	Services int            `json:"services"`
	ByRegion map[string]int `json:"by_region"`
}

// The simulator configuration types are re-exported so packages above
// the boundary (core and its tests, the CLIs) can describe clouds
// without importing cloudsim directly.
type (
	// SimConfig configures an in-process simulated cloud.
	SimConfig = cloudsim.Config
	// RegionConfig is one region's address-layout share.
	RegionConfig = cloudsim.RegionConfig
	// PopulationConfig shapes the simulated tenant population.
	PopulationConfig = cloudsim.PopulationConfig
	// IPState is the per-(day, IP) ground truth record.
	IPState = cloudsim.IPState
	// Feeds bundles the simulated blacklist feeds.
	Feeds = blacklist.Feeds
)

// DefaultEC2Config returns the stock EC2-like simulation scaled down
// by scaleDiv.
func DefaultEC2Config(scaleDiv int, seed int64) SimConfig {
	return cloudsim.DefaultEC2Config(scaleDiv, seed)
}

// DefaultAzureConfig returns the stock Azure-like simulation scaled
// down by scaleDiv.
func DefaultAzureConfig(scaleDiv int, seed int64) SimConfig {
	return cloudsim.DefaultAzureConfig(scaleDiv, seed)
}

// ProfileConfig returns the stock simulation for a named cloud
// profile — "ec2" or "azure", the CLIs' -cloud values.
func ProfileConfig(name string, scaleDiv int, seed int64) (SimConfig, error) {
	switch name {
	case "ec2":
		return DefaultEC2Config(scaleDiv, seed), nil
	case "azure":
		return DefaultAzureConfig(scaleDiv, seed), nil
	}
	return SimConfig{}, fmt.Errorf("unknown cloud %q (want ec2 or azure)", name)
}

// Sim returns c's in-process simulator, or nil when the cloud is
// remote. Ground-truth-hungry callers (accuracy tests, experiments)
// use it; campaign code must not, or it would break under wire mode.
func Sim(c Cloud) *cloudsim.Cloud {
	if p, ok := c.(*InProcess); ok {
		return p.cloud
	}
	return nil
}

// FeedsOf returns the cloud's blacklist feeds when it has them
// locally (in-process clouds), else nil. Wire campaigns that need
// feed joins run them on the daemon side or rebuild feeds from the
// ground truth.
func FeedsOf(c Cloud) *Feeds {
	if p, ok := c.(*InProcess); ok {
		return p.feeds
	}
	return nil
}
