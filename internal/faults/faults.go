package faults

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/netsim"
	"whowas/internal/trace"
)

// Options wires an Injector to its environment. All fields are
// optional: a nil Day pins the scenario to day 0, a nil RegionOf
// disables regional matching (regional blackouts then never fire), and
// a nil Metrics disables the faults.* counters.
type Options struct {
	// Day supplies the current campaign day (netsim.Network.Day for
	// simulated campaigns).
	Day func() int
	// RegionOf maps an address to its cloud region, for regional
	// blackouts (cloudsim.Cloud.RegionOf).
	RegionOf func(ipaddr.Addr) string
	// Metrics receives the injection counters: faults.dials_dropped,
	// faults.blackout_drops, faults.flap_drops, faults.dials_delayed,
	// faults.resets, faults.stalls, faults.truncations.
	Metrics *metrics.Registry
}

// Injector wraps a Dialer with a Scenario's faults. Safe for
// concurrent use. Fault decisions are deterministic per (ip, port,
// day, attempt): the attempt index for a key advances on every dial of
// that key, so a retry of a lost dial rolls a fresh — but reproducible
// — decision, exactly like the §4 retry experiment's second probe.
type Injector struct {
	inner    netsim.Dialer
	sc       Scenario
	day      func() int
	regionOf func(ipaddr.Addr) string
	seed     uint64

	mu       sync.Mutex
	lastDay  int
	attempts map[dialKey]uint64

	mDropped   *metrics.Counter // dials lost to steady loss or ramps
	mBlackout  *metrics.Counter // dials swallowed by a blackout
	mFlapped   *metrics.Counter // dials to an IP inside its flap window
	mDelayed   *metrics.Counter // dials delayed by latency injection
	mResets    *metrics.Counter // connections armed with a mid-stream reset
	mStalls    *metrics.Counter // connections armed with a stalled first read
	mTruncated *metrics.Counter // connections armed with a truncated stream
}

type dialKey struct {
	ip   ipaddr.Addr
	port int
	day  int
}

// Wrap builds an injector over the given dialer.
func Wrap(inner netsim.Dialer, sc Scenario, opts Options) (*Injector, error) {
	if inner == nil {
		return nil, fmt.Errorf("faults: nil dialer")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	i := &Injector{
		inner:    inner,
		sc:       sc.WithDefaults(),
		day:      opts.Day,
		regionOf: opts.RegionOf,
		seed:     mix64(uint64(sc.Seed) ^ 0xd6e8feb86659fd93),
		lastDay:  -1,
		attempts: make(map[dialKey]uint64),
	}
	if i.day == nil {
		i.day = func() int { return 0 }
	}
	if r := opts.Metrics; r != nil {
		i.mDropped = r.Counter("faults.dials_dropped")
		i.mBlackout = r.Counter("faults.blackout_drops")
		i.mFlapped = r.Counter("faults.flap_drops")
		i.mDelayed = r.Counter("faults.dials_delayed")
		i.mResets = r.Counter("faults.resets")
		i.mStalls = r.Counter("faults.stalls")
		i.mTruncated = r.Counter("faults.truncations")
	}
	return i, nil
}

// Scenario returns the injector's resolved scenario.
func (i *Injector) Scenario() Scenario { return i.sc }

// Salts separating the fault families' hash streams.
const (
	saltLoss = iota + 1
	saltJitter
	saltReset
	saltStall
	saltTruncate
	saltFlap
	saltFlapPhase
)

// mix64 is the splitmix64 finalizer, the same mixing the cloud
// simulator uses for its per-day hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a deterministic value in [0,1000) for one fault family
// at one dial attempt.
func (i *Injector) roll(salt uint64, ip ipaddr.Addr, port, day int, attempt uint64) uint64 {
	h := mix64(i.seed ^ salt<<56 ^ uint64(ip))
	h = mix64(h ^ uint64(port)<<32 ^ uint64(uint32(day)))
	h = mix64(h ^ attempt)
	return h % 1000
}

// nextAttempt returns this dial's attempt index for its (ip, port,
// day) key — 0 for the first dial, 1 for the first retry, and so on.
// Stale keys are pruned when the day advances, bounding the map to one
// day's working set.
func (i *Injector) nextAttempt(ip ipaddr.Addr, port, day int) uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	if day != i.lastDay {
		i.attempts = make(map[dialKey]uint64)
		i.lastDay = day
	}
	k := dialKey{ip: ip, port: port, day: day}
	n := i.attempts[k]
	i.attempts[k] = n + 1
	return n
}

// lossPerMille is the effective dial loss on a day: the steady rate
// plus any active loss-ramp episodes, clamped to 1000.
func (i *Injector) lossPerMille(day int) int {
	pm := i.sc.DialLossPerMille
	for idx := range i.sc.Episodes {
		e := &i.sc.Episodes[idx]
		if e.Kind == KindLossRamp && e.active(day) {
			pm += e.rampLoss(day)
		}
	}
	if pm > 1000 {
		pm = 1000
	}
	return pm
}

// extraLatency is the active slow-network episodes' added connect
// latency on a day.
func (i *Injector) extraLatency(day int) time.Duration {
	var ms int
	for idx := range i.sc.Episodes {
		e := &i.sc.Episodes[idx]
		if e.Kind == KindSlowNetwork && e.active(day) {
			ms += e.ExtraLatencyMS
		}
	}
	return time.Duration(ms) * time.Millisecond
}

// blackout returns the active blackout episode covering (ip, day), or
// nil.
func (i *Injector) blackout(ip ipaddr.Addr, day int) *Episode {
	for idx := range i.sc.Episodes {
		e := &i.sc.Episodes[idx]
		if e.Kind != KindBlackout || !e.active(day) {
			continue
		}
		if e.Region == "" {
			return e
		}
		if i.regionOf != nil && i.regionOf(ip) == e.Region {
			return e
		}
	}
	return nil
}

// flapping reports whether ip is inside its flap down-window on day.
// Flappy IPs are selected by a day-independent hash; each one's window
// phase is seeded so flaps stagger across the population.
func (i *Injector) flapping(ip ipaddr.Addr, day int) bool {
	if i.sc.FlapPerMille <= 0 {
		return false
	}
	if i.roll(saltFlap, ip, 0, 0, 0) >= uint64(i.sc.FlapPerMille) {
		return false
	}
	phase := int(i.roll(saltFlapPhase, ip, 0, 0, 0)) % i.sc.FlapPeriodDays
	return (day+phase)%i.sc.FlapPeriodDays < i.sc.FlapDownDays
}

// dialDelay is the deterministic injected connect latency for one
// attempt: base latency ± jitter plus slow-network extras.
func (i *Injector) dialDelay(ip ipaddr.Addr, port, day int, attempt uint64) time.Duration {
	d := time.Duration(i.sc.DialLatencyMS)*time.Millisecond + i.extraLatency(day)
	if j := i.sc.DialJitterMS; j > 0 {
		// Roll in [0, 2j] ms, recentered to ±j around the base.
		r := i.roll(saltJitter, ip, port, day, attempt)
		d += time.Duration(int(r%uint64(2*j+1))-j) * time.Millisecond
	}
	if d < 0 {
		d = 0
	}
	return d
}

// DialContext implements netsim.Dialer, applying the scenario before
// and after delegating to the wrapped dialer. Non-address targets pass
// straight through.
func (i *Injector) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return i.inner.DialContext(ctx, network, address)
	}
	ip, err := ipaddr.ParseAddr(host)
	if err != nil {
		return i.inner.DialContext(ctx, network, address)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return i.inner.DialContext(ctx, network, address)
	}
	day := i.day()
	attempt := i.nextAttempt(ip, port, day)

	if e := i.blackout(ip, day); e != nil {
		i.mBlackout.Inc()
		annotate(ctx, "blackout")
		if e.Hold {
			// Dropped-SYN semantics: the dial burns the caller's whole
			// timeout, like a real unanswered probe.
			<-ctx.Done()
		}
		return nil, netsim.ErrTimeout
	}
	if i.flapping(ip, day) {
		i.mFlapped.Inc()
		annotate(ctx, "flap")
		return nil, netsim.ErrTimeout
	}
	if pm := i.lossPerMille(day); pm > 0 && i.roll(saltLoss, ip, port, day, attempt) < uint64(pm) {
		i.mDropped.Inc()
		annotate(ctx, "dial_loss")
		return nil, netsim.ErrTimeout
	}
	if d := i.dialDelay(ip, port, day, attempt); d > 0 {
		i.mDelayed.Inc()
		annotate(ctx, "delay")
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, netsim.ErrTimeout
		}
	}

	conn, err := i.inner.DialContext(ctx, network, address)
	if err != nil {
		return nil, err
	}

	// Stream faults, one roll per family per accepted connection; the
	// first match wins so a connection carries at most one.
	sc := &i.sc
	switch {
	case sc.ResetPerMille > 0 && i.roll(saltReset, ip, port, day, attempt) < uint64(sc.ResetPerMille):
		i.mResets.Inc()
		annotate(ctx, "reset")
		return newFaultConn(conn, modeReset, sc.ResetAfterBytes, 0), nil
	case sc.StallPerMille > 0 && i.roll(saltStall, ip, port, day, attempt) < uint64(sc.StallPerMille):
		i.mStalls.Inc()
		annotate(ctx, "stall")
		return newFaultConn(conn, modeStall, 0, time.Duration(sc.StallMS)*time.Millisecond), nil
	case sc.TruncatePerMille > 0 && i.roll(saltTruncate, ip, port, day, attempt) < uint64(sc.TruncatePerMille):
		i.mTruncated.Inc()
		annotate(ctx, "truncate")
		return newFaultConn(conn, modeTruncate, sc.TruncateAfterBytes, 0), nil
	}
	return conn, nil
}

// annotate marks the span that initiated this dial — the scanner and
// fetcher thread their sampled per-IP spans through the dial context —
// with the injected fault kind. Unsampled dials carry no span and the
// call no-ops.
func annotate(ctx context.Context, kind string) {
	trace.FromContext(ctx).SetAttr(trace.Bool("fault."+kind, true))
}

// Stream fault modes.
const (
	modeReset    = iota // error out after the byte budget
	modeStall           // block the first read for the stall duration
	modeTruncate        // clean EOF after the byte budget
)

// resetError is the injected mid-stream reset, shaped like the
// kernel's ECONNRESET so transport code classifies it as transient.
type resetError struct{}

func (resetError) Error() string   { return "read: connection reset by peer" }
func (resetError) Timeout() bool   { return false }
func (resetError) Temporary() bool { return true }

// faultConn wraps a connection with one armed stream fault.
type faultConn struct {
	net.Conn
	mode   int
	budget int           // remaining bytes before reset/truncate
	stall  time.Duration // first-read stall
	first  bool          // stall not yet served
	fired  bool          // budget exhausted

	closeOnce sync.Once
	closed    chan struct{}
}

func newFaultConn(c net.Conn, mode, budget int, stall time.Duration) *faultConn {
	return &faultConn{Conn: c, mode: mode, budget: budget, stall: stall, first: true, closed: make(chan struct{})}
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.mode == modeStall && c.first {
		c.first = false
		t := time.NewTimer(c.stall)
		select {
		case <-t.C:
		case <-c.closed:
			t.Stop()
			return 0, net.ErrClosed
		}
		return c.Conn.Read(p)
	}
	if c.mode == modeStall {
		return c.Conn.Read(p)
	}
	if c.fired {
		if c.mode == modeTruncate {
			return 0, io.EOF
		}
		return 0, resetError{}
	}
	if len(p) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.Conn.Read(p)
	c.budget -= n
	if c.budget <= 0 {
		c.fired = true
		// Drop the underlying stream: a reset peer is gone, and a
		// truncated stream has nothing more to deliver.
		_ = c.Conn.Close()
		if err == nil {
			if c.mode == modeTruncate {
				err = io.EOF
			} else {
				err = resetError{}
			}
		}
	}
	return n, err
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
