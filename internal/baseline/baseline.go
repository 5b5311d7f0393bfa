// Package baseline implements the DNS-interrogation methodology of
// prior work (He et al., IMC 2013 — reference [2] of the paper), which
// WhoWas is contrasted against: instead of probing cloud address
// ranges directly, the baseline resolves a seed list of domains and
// counts the cloud IPs the answers land on.
//
// The comparison shows why the paper built WhoWas: DNS interrogation
// only sees deployments whose domains are (a) in the seed list and
// (b) resolvable, and it observes at most the answer-capped set of IPs
// per domain, while direct probing observes every publicly reachable
// deployment.
package baseline

import (
	"context"
	"fmt"

	"whowas/internal/dnssim"
	"whowas/internal/ipaddr"
	"whowas/internal/ratelimit"
)

// maxAnswers caps IPs per DNS answer: authoritative servers typically
// return a subset, and 8 mirrors common RR-set limits.
const maxAnswers = 8

// Config tunes the baseline sweep.
type Config struct {
	// SeedShare is the fraction of resolvable domains assumed to be in
	// the interrogator's seed list (prior work used Alexa top-million
	// subdomains; coverage of cloud tenants was partial). Default 1.0:
	// even with a perfect seed list the method undercounts.
	SeedShare float64
	// Rate caps DNS queries per second (default 500).
	Rate float64
	// Clock feeds the rate limiter (nil = wall clock).
	Clock ratelimit.Clock
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.SeedShare <= 0 || out.SeedShare > 1 {
		out.SeedShare = 1
	}
	if out.Rate <= 0 {
		out.Rate = 500
	}
	return out
}

// Result compares DNS-interrogation coverage against direct probing.
type Result struct {
	Domains     int // domains interrogated
	Resolved    int // domains that resolved to at least one cloud IP
	ObservedIPs int // distinct cloud IPs seen via DNS
	// DirectWebIPs is filled by the caller with the direct-probing
	// count for the same day, for the coverage ratio.
	DirectWebIPs int
}

// Coverage returns observed/direct (0 when direct unknown).
func (r *Result) Coverage() float64 {
	if r.DirectWebIPs == 0 {
		return 0
	}
	return float64(r.ObservedIPs) / float64(r.DirectWebIPs)
}

// Format renders the comparison.
func (r *Result) Format(cloud string) string {
	return fmt.Sprintf("DNS baseline (%s): %d domains, %d resolved, %d IPs observed vs %d via direct probing (coverage %.1f%%)",
		cloud, r.Domains, r.Resolved, r.ObservedIPs, r.DirectWebIPs, 100*r.Coverage())
}

// Sweep interrogates the resolvable domain universe on a given
// campaign day.
func Sweep(ctx context.Context, resolver *dnssim.Resolver, day int, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	limiter, err := ratelimit.NewWithClock(cfg.Rate, 10, cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	domains := resolver.Domains()
	// Truncate to the seed share: the interrogator only knows the
	// domains its seed list contains.
	n := int(float64(len(domains)) * cfg.SeedShare)
	domains = domains[:n]

	out := &Result{Domains: len(domains)}
	seen := map[ipaddr.Addr]bool{}
	for _, d := range domains {
		if err := limiter.Wait(ctx); err != nil {
			return nil, err
		}
		ips := resolver.LookupDomain(d, day, maxAnswers)
		if len(ips) > 0 {
			out.Resolved++
		}
		for _, ip := range ips {
			seen[ip] = true
		}
	}
	out.ObservedIPs = len(seen)
	return out, nil
}
