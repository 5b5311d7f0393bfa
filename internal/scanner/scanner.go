// Package scanner implements WhoWas's probing engine (§4). For each
// target IP it sends lightweight TCP connection probes ("SYNs") first
// to port 80, then to 443; only if both fail does it probe 22, which
// identifies live instances without public web services. Probes time
// out after two seconds and by default are never retried — the paper
// measured that longer timeouts and retries change the responsive
// population by well under one percent (reproduced by the §4 timeout
// experiment in this repository's bench suite). Config.Attempts turns
// on the paper's calibration schedule for faulty-network runs: a
// timed-out probe is retried with a doubling backoff, identical from
// run to run, while a refusal — a definitive answer from the instance
// — never is.
//
// A token-bucket limiter enforces the global probe budget (250 probes
// per second by default — deliberately far below Internet-scanner
// rates, §4/§7) across all workers, and a per-IP opt-out blacklist is
// honored before any probe is sent.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/netsim"
	"whowas/internal/ratelimit"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// Config tunes the scanner. Zero fields take the paper's defaults.
type Config struct {
	Rate    float64       // global probes per second (default 250)
	Timeout time.Duration // per-probe timeout (default 2s)
	Workers int           // concurrent probing workers (default 64)
	Clock   ratelimit.Clock

	// Attempts is the maximum dial attempts per port probe. The default
	// of 1 is the paper's production schedule (no retries); chaos and
	// calibration runs raise it. Only timeouts are retried — a refusal
	// is a definitive answer from the instance.
	Attempts int
	// RetryBackoff is the delay before the first retry; it doubles on
	// each further attempt. Default 100ms when Attempts > 1.
	RetryBackoff time.Duration
	// Metrics, when non-nil, receives the scanner's instrumentation:
	// the scanner.* counters, the scanner.probe_latency histogram and
	// the scanner.limiter_wait stage. Nil disables instrumentation
	// (including the per-probe clock reads).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records sampled per-IP "probe" spans
	// (attributes: ip, region, prefix, ports, probes) as children of
	// the span carried by the scan context. The fault layer annotates
	// these spans with the faults it injects into their dials. Nil
	// disables tracing; which IPs are sampled is the tracer's
	// deterministic per-IP decision.
	Tracer *trace.Tracer
	// RegionOf labels sampled probe spans with the target's cloud
	// region (cloudsim.Cloud.RegionOf); nil omits the attribute.
	RegionOf func(ipaddr.Addr) string
}

// DefaultWorkers is the resolved worker-pool size when Config.Workers
// is zero: scaled with the hardware (16 workers per scheduler core —
// probing is latency-bound, so the pool runs far wider than the CPU
// count) and floored at the paper's 64.
func DefaultWorkers() int {
	w := 16 * runtime.GOMAXPROCS(0)
	if w < 64 {
		w = 64
	}
	return w
}

// WithDefaults returns the config with zero fields resolved to the
// paper's defaults (250 pps, 2 s probe timeout, DefaultWorkers
// workers). New applies it internally; it is exported so callers and
// tests can observe the resolved values instead of re-stating them.
func (c Config) WithDefaults() Config {
	out := c
	if out.Rate <= 0 {
		out.Rate = 250
	}
	if out.Timeout <= 0 {
		out.Timeout = 2 * time.Second
	}
	if out.Workers <= 0 {
		out.Workers = DefaultWorkers()
	}
	if out.Attempts <= 0 {
		out.Attempts = 1
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 100 * time.Millisecond
	}
	return out
}

// Result reports one responsive IP's open ports. Unresponsive IPs
// produce no Result.
type Result struct {
	IP        ipaddr.Addr
	OpenPorts uint8 // store.PortSSH / PortHTTP / PortHTTPS bits
}

// Stats summarizes one scan round. It rides the coord submit wire
// inside a RegionResult, so the JSON field names are pinned.
type Stats struct {
	Probed     int64 `json:"probed"`     // IPs probed
	Skipped    int64 `json:"skipped"`    // IPs skipped via the opt-out blacklist
	Probes     int64 `json:"probes"`     // individual port probes sent (retries included)
	Retries    int64 `json:"retries"`    // probes that were retries of a timed-out attempt
	Responsive int64 `json:"responsive"` // IPs that answered at least one probe
}

// Scanner probes cloud address ranges through a Dialer.
type Scanner struct {
	dialer  netsim.Dialer
	cfg     Config
	limiter *ratelimit.Limiter

	// Instrumentation handles; all nil (no-op) without a registry.
	mProbes      *metrics.Counter   // individual port probes sent
	mProbedIPs   *metrics.Counter   // IPs fully probed
	mSkipped     *metrics.Counter   // IPs skipped via the blacklist
	mResponsive  *metrics.Counter   // IPs that answered a probe
	mRetries     *metrics.Counter   // retry probes after timeouts
	mProbeLat    *metrics.Histogram // per-probe dial latency
	mLimiterWait *metrics.Histogram // time blocked on the rate limiter
}

// UnlimitedRate disables rate limiting entirely when passed as
// Config.Rate. Only simulated campaigns use it — probing real networks
// unthrottled would violate the §7 politeness stance.
const UnlimitedRate = 1e9

// New builds a scanner over the given dialer.
func New(dialer netsim.Dialer, cfg Config) (*Scanner, error) {
	if dialer == nil {
		return nil, fmt.Errorf("scanner: nil dialer")
	}
	c := cfg.WithDefaults()
	s := &Scanner{dialer: dialer, cfg: c}
	if r := c.Metrics; r != nil {
		s.mProbes = r.Counter("scanner.probes")
		s.mProbedIPs = r.Counter("scanner.probed_ips")
		s.mSkipped = r.Counter("scanner.skipped_ips")
		s.mResponsive = r.Counter("scanner.responsive_ips")
		s.mRetries = r.Counter("scanner.retries")
		s.mProbeLat = r.Histogram("scanner.probe_latency")
		s.mLimiterWait = r.Histogram("scanner.limiter_wait")
	}
	if c.Rate < UnlimitedRate {
		lim, err := ratelimit.NewWithClock(c.Rate, max(1, int(c.Rate/10)), c.Clock)
		if err != nil {
			return nil, fmt.Errorf("scanner: %w", err)
		}
		s.limiter = lim
	}
	return s, nil
}

// wait blocks for the global probe budget; a nil limiter means the
// unlimited simulation mode.
func (s *Scanner) wait(ctx context.Context) error {
	if s.limiter == nil {
		return ctx.Err()
	}
	if s.mLimiterWait == nil {
		return s.limiter.Wait(ctx)
	}
	start := time.Now()
	err := s.limiter.Wait(ctx)
	s.mLimiterWait.Observe(time.Since(start))
	return err
}

// probe sends one connection probe to address ("a.b.c.d:port"),
// returning whether the port answered and, when it did not, the dial
// error so callers can tell a timeout (retryable) from a refusal.
// Connection-refused counts as a response from the instance for
// liveness purposes only at the TCP level; the paper's scanner records
// a port as open only when the SYN is answered with SYN-ACK, so
// refusals report false here. The dial runs under pctx, reset to end
// timeout from now: a worker's probes share one, and its deadline arms
// no timer unless the dialer holds the dial on Done.
func (s *Scanner) probe(ctx context.Context, pctx *netsim.DeadlineContext, address string, timeout time.Duration) (bool, error) {
	if s.mProbeLat != nil {
		start := time.Now()
		defer func() { s.mProbeLat.Observe(time.Since(start)) }()
	}
	pctx.Reset(ctx, timeout)
	defer pctx.Release()
	conn, err := s.dialer.DialContext(pctx, "tcp", address)
	if err != nil {
		return false, err
	}
	conn.Close()
	return true, nil
}

// dialAddress formats "a.b.c.d:port" in one allocation; a port's
// retries reuse it.
func dialAddress(ip ipaddr.Addr, port int) string {
	var buf [len("255.255.255.255:65535")]byte
	return string(strconv.AppendInt(append(ip.AppendTo(buf[:0]), ':'), int64(port), 10))
}

// probePort runs the full retry schedule for one (ip, port): up to
// Config.Attempts probes, retrying only on timeouts, with a doubling
// backoff (retryDelay) between attempts. Every attempt
// pays the rate-limiter toll and counts as a probe; the returned count
// is how many probes this port consumed. A dial error that is no
// verdict (see verdict) is returned: the port was not measured.
func (s *Scanner) probePort(ctx context.Context, pctx *netsim.DeadlineContext, ip ipaddr.Addr, port int, stats *Stats) (bool, int64, error) {
	address := dialAddress(ip, port)
	for attempt := 0; ; attempt++ {
		if err := s.wait(ctx); err != nil {
			return false, int64(attempt), err
		}
		atomic.AddInt64(&stats.Probes, 1)
		s.mProbes.Inc()
		ok, perr := s.probe(ctx, pctx, address, s.cfg.Timeout)
		if ok {
			return true, int64(attempt + 1), nil
		}
		timeout, ok := verdict(perr)
		if !ok {
			return false, int64(attempt + 1), perr
		}
		if attempt+1 >= s.cfg.Attempts || !timeout {
			return false, int64(attempt + 1), nil
		}
		atomic.AddInt64(&stats.Retries, 1)
		s.mRetries.Inc()
		if err := ratelimit.Sleep(ctx, s.retryDelay(attempt)); err != nil {
			return false, int64(attempt + 1), err
		}
	}
}

// retryDelay is the pause before retry number attempt+1: RetryBackoff
// doubled per prior attempt, so identical scans sleep identically.
func (s *Scanner) retryDelay(attempt int) time.Duration {
	return s.cfg.RetryBackoff << uint(attempt)
}

// ProbeOnce exposes a single probe with an explicit timeout, used by
// the §4 timeout/retry experiment.
func (s *Scanner) ProbeOnce(ctx context.Context, ip ipaddr.Addr, port int, timeout time.Duration) (bool, error) {
	if err := s.wait(ctx); err != nil {
		return false, err
	}
	s.mProbes.Inc()
	ok, err := s.probe(ctx, new(netsim.DeadlineContext), dialAddress(ip, port), timeout)
	if !ok {
		if _, answered := verdict(err); !answered {
			return false, err
		}
	}
	return ok, nil
}

// startProbeSpan opens the sampled per-IP span, or returns nil when
// the IP is unsampled (or tracing is off). The span parents to the
// round's scan span carried by ctx.
func (s *Scanner) startProbeSpan(ctx context.Context, ip ipaddr.Addr) *trace.Span {
	if !s.cfg.Tracer.SampleIP(uint64(ip)) {
		return nil
	}
	attrs := []trace.Attr{
		trace.String("ip", ip.String()),
		trace.String("prefix", ip.Prefix22().String()),
	}
	if s.cfg.RegionOf != nil {
		attrs = append(attrs, trace.String("region", s.cfg.RegionOf(ip)))
	}
	return s.cfg.Tracer.Start("probe", trace.FromContext(ctx), attrs...)
}

// scanIP runs the §4 probe sequence for one IP: 80, then 443, then 22
// only if both web probes failed. Sampled IPs get a "probe" span
// wrapping the whole sequence; the fault injector sees it through the
// dial context and annotates the faults it injects. pctx is the
// worker's probe context, which every probe of the sequence reuses.
func (s *Scanner) scanIP(ctx context.Context, pctx *netsim.DeadlineContext, ip ipaddr.Addr, stats *Stats) (uint8, error) {
	sp := s.startProbeSpan(ctx, ip)
	if sp != nil {
		ctx = trace.NewContext(ctx, sp)
	}
	open, probes, err := s.probeSequence(ctx, pctx, ip, stats)
	if sp != nil {
		sp.SetAttr(trace.Int("ports", int(open)), trace.Int64("probes", probes))
		if err != nil {
			sp.SetAttr(trace.String("error", "aborted"))
		}
		sp.End()
	}
	return open, err
}

func (s *Scanner) probeSequence(ctx context.Context, pctx *netsim.DeadlineContext, ip ipaddr.Addr, stats *Stats) (uint8, int64, error) {
	var open uint8
	var probes int64
	for _, port := range []int{80, 443} {
		ok, n, err := s.probePort(ctx, pctx, ip, port, stats)
		probes += n
		if err != nil {
			return 0, probes, err
		}
		if ok {
			if port == 80 {
				open |= store.PortHTTP
			} else {
				open |= store.PortHTTPS
			}
		}
	}
	if open == 0 {
		ok, n, err := s.probePort(ctx, pctx, ip, 22, stats)
		probes += n
		if err != nil {
			return 0, probes, err
		}
		if ok {
			open |= store.PortSSH
		}
	}
	return open, probes, nil
}

// ScanRangesInto probes every address in ranges (minus the blacklist),
// streaming Results for responsive IPs to the results channel. It
// leaves the channel open — a region-sharded lane feeds several
// sequential region scans into one channel the lane owns — and sizes
// this scan's worker pool explicitly (so N concurrent lanes can split
// one configured pool instead of multiplying it). workers <= 0 uses
// the configured pool size. The scan stops queueing addresses at its
// first error. The returned Stats are final. All scans
// share the scanner's global rate limiter, which keeps the §7 probe
// budget campaign-wide no matter how many lanes run.
func (s *Scanner) ScanRangesInto(ctx context.Context, ranges *ipaddr.RangeList, blacklist *ipaddr.Set, results chan<- Result, workers int) (*Stats, error) {
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	stats := &Stats{}
	tasks := make(chan ipaddr.Addr, 4*workers)
	var wg sync.WaitGroup
	var firstErr atomic.Value

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx := new(netsim.DeadlineContext)
			for ip := range tasks {
				if firstErr.Load() != nil {
					continue // the scan has failed: drain, measure nothing more
				}
				open, err := s.scanIP(ctx, pctx, ip, stats)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				atomic.AddInt64(&stats.Probed, 1)
				s.mProbedIPs.Inc()
				if open != 0 {
					atomic.AddInt64(&stats.Responsive, 1)
					s.mResponsive.Inc()
					select {
					case results <- Result{IP: ip, OpenPorts: open}:
					case <-ctx.Done():
						firstErr.CompareAndSwap(nil, ctx.Err())
					}
				}
			}
		}()
	}

feed:
	for _, prefix := range ranges.Prefixes() {
		last := prefix.Last()
		for ip := prefix.First(); ; ip++ {
			if firstErr.Load() != nil {
				break feed // the scan has failed: walk no further
			}
			if blacklist.Contains(ip) {
				atomic.AddInt64(&stats.Skipped, 1)
				s.mSkipped.Inc()
			} else {
				select {
				case tasks <- ip:
				case <-ctx.Done():
					break feed
				}
			}
			if ip == last {
				break
			}
		}
	}
	close(tasks)
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return stats, err
	}
	return stats, ctx.Err()
}

// verdict reads a failed probe's dial error. A net.Error is the
// network's answer about the address — a timeout (dropped SYN) or a
// refusal — and the port is closed. Anything else says nothing about
// the address: the dialer itself failed (cloudapi.ErrTransport when
// the wire to whowas-cloudd is down) or the context was cancelled, and
// counting the IP as unresponsive would record a dead data plane as an
// empty cloud. The simulators' and the fault injector's errors are
// net.Errors themselves, so the common case is one type assertion and
// no allocation; errors.As, which allocates, is for a wrapped one.
func verdict(err error) (timeout, ok bool) {
	if ne, ok := err.(net.Error); ok {
		return ne.Timeout(), true
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		return false, false
	}
	return ne.Timeout(), true
}

// IsTimeout reports whether a dial error was a timeout (dropped SYN)
// rather than a refusal; exposed for diagnostics and tests. errors.As
// unwraps, so a *url.Error from an HTTP client and the raw net.Error
// underneath it classify identically.
func IsTimeout(err error) bool {
	timeout, _ := verdict(err)
	return timeout
}
