// Package carto implements WhoWas's cloud cartography (§5): a one-time
// DNS sweep that labels each public /22 prefix of an EC2-like cloud as
// VPC or classic networking. For every sampled IP the sweep forms the
// EC2-style public DNS name and interprets the internal resolver's
// answer: an SOA means no active instance (classic by the paper's
// rule), a public-IP answer means VPC, and a private-IP answer means
// classic. A /22 becomes VPC when any sampled IP in it answers with a
// public address.
//
// The resulting map is joined onto round records so every analysis can
// split by networking type (Figures 13 and 14, Table 2).
package carto

import (
	"context"
	"fmt"
	"time"

	"whowas/internal/dnssim"
	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/ratelimit"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// Map labels /22 prefixes as VPC or classic.
type Map struct {
	vpc map[ipaddr.Addr]bool // keyed by /22 network address
}

// IsVPC reports whether an address lies in a VPC-labeled /22.
func (m *Map) IsVPC(a ipaddr.Addr) bool {
	return m != nil && m.vpc[a.Prefix22().Addr]
}

// VPCPrefixCount returns the number of VPC-labeled /22s.
func (m *Map) VPCPrefixCount() int {
	n := 0
	for _, v := range m.vpc {
		if v {
			n++
		}
	}
	return n
}

// Apply writes the VPC label into every record of every round,
// persisting through the store's update path, the only write that
// reaches every backend. A flags-only scan finds the rounds holding a
// stale label; only those are read whole and rewritten.
func (m *Map) Apply(st *store.Store) error {
	var stale []int
	st.Scan(store.FieldFlags, func(round *store.Round) bool {
		round.Each(func(rec *store.Record) bool {
			if rec.VPC != m.IsVPC(rec.IP) {
				stale = append(stale, round.Index)
				return false
			}
			return true
		})
		return true
	})
	return st.UpdateRounds(stale, func(round *store.Round) bool {
		round.Each(func(rec *store.Record) bool {
			rec.VPC = m.IsVPC(rec.IP)
			return true
		})
		return true
	})
}

// samplesPerPrefix is how many addresses of each /22 are queried: one
// public-IP answer suffices to label the prefix, and at default
// utilization a /22 holds ~240 bound IPs.
const samplesPerPrefix = 48

// Config tunes the sweep.
type Config struct {
	// Rate caps DNS queries per second ("a suitably low rate limit",
	// §5; default 100).
	Rate float64
	// Clock feeds the rate limiter (nil = wall clock).
	Clock ratelimit.Clock
	// Metrics, when non-nil, receives the sweep instrumentation:
	// carto.* counters and the carto.sweep stage timing.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records a "carto" span covering the sweep
	// with prefix and query counts as attributes.
	Tracer *trace.Tracer
}

// WithDefaults returns the config with zero fields resolved to the
// paper's defaults (100 qps). Sweep applies it internally; it is
// exported so callers and tests can observe the resolved values
// instead of re-stating them.
func (c Config) WithDefaults() Config {
	out := c
	if out.Rate <= 0 {
		out.Rate = 100
	}
	return out
}

// Resolver is the DNS surface the sweep needs. *dnssim.Resolver
// satisfies it directly; cloudapi resolvers put the same lookups
// behind a wire.
type Resolver interface {
	LookupPublicName(ctx context.Context, name string) (dnssim.Response, error)
}

// Sweep performs the cartography measurement over every /22 in ranges,
// querying through the resolver.
func Sweep(ctx context.Context, resolver Resolver, ranges *ipaddr.RangeList, regionOf func(ipaddr.Addr) string, cfg Config) (*Map, error) {
	cfg = cfg.WithDefaults()
	reg := cfg.Metrics
	sp := cfg.Tracer.Start("carto", nil)
	start := time.Now()
	queries := reg.Counter("carto.dns_queries")
	limiter, err := ratelimit.NewWithClock(cfg.Rate, 10, cfg.Clock)
	if err != nil {
		sp.SetAttr(trace.String("error", "config"))
		sp.End()
		return nil, fmt.Errorf("carto: %w", err)
	}
	m := &Map{vpc: make(map[ipaddr.Addr]bool)}
	for _, prefix := range ranges.Prefixes() {
		first := prefix.First() &^ 0x3ff
		last := prefix.Last() &^ 0x3ff
		for p22 := first; ; p22 += 1024 {
			if _, seen := m.vpc[p22]; !seen {
				vpc, err := sweepPrefix(ctx, resolver, limiter, queries, p22, regionOf)
				if err != nil {
					sp.SetAttr(trace.String("error", "sweep"))
					sp.End()
					return nil, err
				}
				m.vpc[p22] = vpc
			}
			if p22 == last {
				break
			}
		}
	}
	reg.Histogram("carto.sweep").Observe(time.Since(start))
	reg.Counter("carto.prefixes").Add(int64(len(m.vpc)))
	reg.Counter("carto.vpc_prefixes").Add(int64(m.VPCPrefixCount()))
	sp.SetAttr(
		trace.Int("prefixes", len(m.vpc)),
		trace.Int("vpc_prefixes", m.VPCPrefixCount()),
	)
	sp.End()
	return m, nil
}

// sweepPrefix samples addresses of one /22 and reports whether any
// resolves as VPC. Samples spread evenly across the block so clustered
// allocations are still hit.
func sweepPrefix(ctx context.Context, resolver Resolver, limiter *ratelimit.Limiter, queries *metrics.Counter, p22 ipaddr.Addr, regionOf func(ipaddr.Addr) string) (bool, error) {
	const step = 1024 / samplesPerPrefix
	region := regionOf(p22)
	for i := 0; i < samplesPerPrefix; i++ {
		if err := limiter.Wait(ctx); err != nil {
			return false, err
		}
		ip := p22 + ipaddr.Addr(i*step)
		queries.Inc()
		resp, err := resolver.LookupPublicName(ctx, dnssim.PublicName(ip, region))
		if err != nil {
			return false, fmt.Errorf("carto: %w", err)
		}
		if resp.Type == dnssim.PublicA {
			return true, nil
		}
	}
	return false, nil
}
