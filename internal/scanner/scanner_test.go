package scanner

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/faults"
	"whowas/internal/ipaddr"
	"whowas/internal/netsim"
	"whowas/internal/ratelimit"
	"whowas/internal/store"
)

func testSetup(t testing.TB) (*cloudsim.Cloud, *netsim.Network) {
	t.Helper()
	cloud, err := cloudsim.New(cloudsim.DefaultEC2Config(1024, 41))
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(cloud)
	if err != nil {
		t.Fatal(err)
	}
	return cloud, net
}

func fastScanner(t testing.TB, d netsim.Dialer) *Scanner {
	t.Helper()
	clock := ratelimit.NewFakeClock(time.Unix(0, 0))
	s, err := New(d, Config{Rate: 1e6, Workers: 32, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil dialer accepted")
	}
	_, net := testSetup(t)
	s, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Rate != 250 || s.cfg.Timeout != 2*time.Second || s.cfg.Workers != DefaultWorkers() {
		t.Errorf("defaults = %+v", s.cfg)
	}
	// The hardware-scaled pool never shrinks below the paper's 64.
	if DefaultWorkers() < 64 {
		t.Errorf("DefaultWorkers() = %d, want >= 64", DefaultWorkers())
	}
}

// TestScanRangesInto: the lane entry point leaves the channel open and
// lets several scans share one stream; the union must equal one
// whole-range ScanRanges pass.
func TestScanRangesInto(t *testing.T) {
	cloud, net := testSetup(t)
	whole, _ := collectScan(t, fastScanner(t, net), cloud.Ranges(), nil)

	// A fresh network for the second pass: netsim's transient-loss
	// model is stateful per (ip, day) — rescanning the same network
	// recovers lossy hosts — so comparing scans needs equal substrates.
	_, net2 := testSetup(t)
	s := fastScanner(t, net2)
	results := make(chan Result, 1024)
	got := map[ipaddr.Addr]uint8{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range results {
			got[r.IP] = r.OpenPorts
		}
	}()
	var probed int64
	for _, p := range cloud.Ranges().Prefixes() {
		sub, err := ipaddr.NewRangeList([]ipaddr.Prefix{p})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := s.ScanRangesInto(context.Background(), sub, nil, results, 8)
		if err != nil {
			t.Fatal(err)
		}
		probed += stats.Probed
	}
	close(results)
	<-done
	if probed != int64(cloud.Ranges().Total()) {
		t.Errorf("per-prefix scans probed %d of %d", probed, cloud.Ranges().Total())
	}
	if len(got) != len(whole) {
		t.Fatalf("per-prefix scans found %d responsive, whole-range %d", len(got), len(whole))
	}
	for ip, ports := range whole {
		if got[ip] != ports {
			t.Errorf("IP %s: ports %d via lanes, %d via whole-range", ip, got[ip], ports)
		}
	}
}

func collectScan(t testing.TB, s *Scanner, ranges *ipaddr.RangeList, bl *ipaddr.Set) (map[ipaddr.Addr]uint8, *Stats) {
	t.Helper()
	results := make(chan Result, 1024)
	got := map[ipaddr.Addr]uint8{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range results {
			got[r.IP] = r.OpenPorts
		}
	}()
	stats, err := s.ScanRangesInto(context.Background(), ranges, bl, results, 0)
	close(results)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	return got, stats
}

func TestScanMatchesGroundTruth(t *testing.T) {
	cloud, net := testSetup(t)
	s := fastScanner(t, net)
	got, stats := collectScan(t, s, cloud.Ranges(), nil)

	if stats.Probed != int64(cloud.Ranges().Total()) {
		t.Errorf("Probed = %d, want %d", stats.Probed, cloud.Ranges().Total())
	}
	// Compare against ground truth: every bound, non-slow IP must be
	// found; transient loss may hide only first probes on lossy picks,
	// but the scan sends distinct probes per port so misses are rare.
	var missed, phantom int
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		_, seen := got[a]
		switch {
		case st.Bound && !st.Slow && !seen:
			missed++
		case !st.Bound && seen:
			phantom++
		}
		return true
	})
	if phantom > 0 {
		t.Errorf("%d unbound IPs reported responsive", phantom)
	}
	// Transient loss can drop ~0.3% of first probes; allow < 1%.
	if float64(missed) > 0.01*float64(stats.Responsive+1) {
		t.Errorf("missed %d live IPs of %d responsive", missed, stats.Responsive)
	}
}

func TestScanPortBits(t *testing.T) {
	cloud, net := testSetup(t)
	s := fastScanner(t, net)
	got, _ := collectScan(t, s, cloud.Ranges(), nil)
	checked := 0
	for ip, ports := range got {
		st := cloud.StateAt(0, ip)
		if !st.Bound {
			continue
		}
		switch st.Ports {
		case cloudsim.SSHOnly:
			if ports&(store.PortHTTP|store.PortHTTPS) != 0 {
				t.Errorf("%s SSH-only but web bits %b", ip, ports)
			}
		case cloudsim.HTTPOnly:
			if ports&store.PortHTTP == 0 && ports != 0 {
				// First-probe loss can miss 80; then 443 fails and 22
				// answers, so PortSSH alone is possible but rare.
				continue
			}
			if ports&store.PortHTTPS != 0 {
				t.Errorf("%s HTTP-only but HTTPS bit set", ip)
			}
		case cloudsim.HTTPBoth:
			if ports&store.PortSSH != 0 {
				t.Errorf("%s web instance probed on 22 (got %b)", ip, ports)
			}
		}
		checked++
		if checked > 3000 {
			break
		}
	}
}

func TestSSHProbedOnlyWhenWebFails(t *testing.T) {
	cloud, net := testSetup(t)
	net.RecordProbes(true)
	s := fastScanner(t, net)
	_, _ = collectScan(t, s, cloud.Ranges(), nil)
	// Politeness (§4/§7): every IP receives at most 3 probes per round.
	violations := 0
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		if n := net.ProbeCount(0, a); n > 3 {
			violations++
		}
		return true
	})
	if violations > 0 {
		t.Errorf("%d IPs got more than 3 probes", violations)
	}
	// Web-answering IPs must get exactly 2 probes (80, 443), no SSH.
	var twoProbeOK, wrong int
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if st.Bound && st.Ports == cloudsim.HTTPBoth && !st.Slow {
			if net.ProbeCount(0, a) == 2 {
				twoProbeOK++
			} else {
				wrong++
			}
		}
		return true
	})
	if wrong > twoProbeOK/50 {
		t.Errorf("probe counts off for web IPs: ok=%d wrong=%d", twoProbeOK, wrong)
	}
}

func TestBlacklistSkipped(t *testing.T) {
	cloud, net := testSetup(t)
	net.RecordProbes(true)
	s := fastScanner(t, net)
	bl := ipaddr.NewSet()
	// Blacklist the first 50 addresses.
	for i := int64(0); i < 50; i++ {
		a, _ := cloud.Ranges().AtIndex(i)
		bl.Add(a)
	}
	got, stats := collectScan(t, s, cloud.Ranges(), bl)
	if stats.Skipped != 50 {
		t.Errorf("Skipped = %d, want 50", stats.Skipped)
	}
	for i := int64(0); i < 50; i++ {
		a, _ := cloud.Ranges().AtIndex(i)
		if net.ProbeCount(0, a) != 0 {
			t.Errorf("blacklisted %s was probed", a)
		}
		if _, seen := got[a]; seen {
			t.Errorf("blacklisted %s in results", a)
		}
	}
}

func TestScanCancellation(t *testing.T) {
	cloud, net := testSetup(t)
	s := fastScanner(t, net)
	ctx, cancel := context.WithCancel(context.Background())
	results := make(chan Result, 16)
	go func() {
		n := 0
		for range results {
			n++
			if n == 5 {
				cancel()
			}
		}
	}()
	_, err := s.ScanRangesInto(ctx, cloud.Ranges(), nil, results, 0)
	close(results)
	if err == nil {
		t.Error("cancelled scan returned nil error")
	}
}

func TestRateLimitEnforced(t *testing.T) {
	cloud, net := testSetup(t)
	clock := ratelimit.NewFakeClock(time.Unix(0, 0))
	s, err := New(net, Config{Rate: 250, Workers: 16, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Scan a small slice of the space and verify virtual elapsed time
	// implies <= 250 pps.
	prefixes := cloud.Ranges().Prefixes()[:1]
	sub, err := ipaddr.NewRangeList(prefixes)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, 1024)
	go func() {
		for range results {
		}
	}()
	start := clock.Now()
	stats, err := s.ScanRangesInto(context.Background(), sub, nil, results, 0)
	close(results)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(start).Seconds()
	rate := float64(stats.Probes) / elapsed
	if rate > 260 { // small burst tolerance
		t.Errorf("effective probe rate %.1f pps exceeds 250", rate)
	}

	// The second probe path, ProbeOnce, pays the same toll.
	const once = 500
	start = clock.Now()
	for i := 0; i < once; i++ {
		if _, err := s.ProbeOnce(context.Background(), prefixes[0].First()+ipaddr.Addr(i), 80, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if rate := once / clock.Now().Sub(start).Seconds(); rate > 260 {
		t.Errorf("ProbeOnce rate %.1f pps exceeds 250", rate)
	}
}

func TestProbeOnceTimeoutSensitivity(t *testing.T) {
	cloud, net := testSetup(t)
	s := fastScanner(t, net)
	// Find a slow live host: impatient probe fails, patient succeeds.
	var slow ipaddr.Addr
	found := false
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if st.Bound && st.Slow {
			slow, found = a, true
			return false
		}
		return true
	})
	if !found {
		t.Skip("no slow host in sample")
	}
	ctx := context.Background()
	ok2, err := s.ProbeOnce(ctx, slow, 22, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ok8, err := s.ProbeOnce(ctx, slow, 22, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ok2 || !ok8 {
		t.Errorf("slow host: 2s probe=%v (want false), 8s probe=%v (want true)", ok2, ok8)
	}
}

func TestIsTimeout(t *testing.T) {
	cloud, net := testSetup(t)
	var unbound, sshOnly ipaddr.Addr
	var haveU, haveS bool
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if !st.Bound && !haveU {
			unbound, haveU = a, true
		}
		if st.Bound && st.Ports == cloudsim.SSHOnly && !st.Slow && !haveS {
			sshOnly, haveS = a, true
		}
		return !(haveU && haveS)
	})
	_, err := net.DialContext(context.Background(), "tcp", unbound.String()+":80")
	if !IsTimeout(err) {
		t.Errorf("unbound dial: IsTimeout = false (%v)", err)
	}
	_, err = net.DialContext(context.Background(), "tcp", sshOnly.String()+":80")
	if IsTimeout(err) {
		t.Errorf("refused dial: IsTimeout = true (%v)", err)
	}
}

func BenchmarkScanRound(b *testing.B) {
	cloud, net := testSetup(b)
	s := fastScanner(b, net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make(chan Result, 1024)
		go func() {
			for range results {
			}
		}()
		_, err := s.ScanRangesInto(context.Background(), cloud.Ranges(), nil, results, 0)
		close(results)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestIsTimeoutUnwrapsWrappedErrors(t *testing.T) {
	cloud, net := testSetup(t)
	var unbound, sshOnly ipaddr.Addr
	var haveU, haveS bool
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if !st.Bound && !haveU {
			unbound, haveU = a, true
		}
		if st.Bound && st.Ports == cloudsim.SSHOnly && !st.Slow && !haveS {
			sshOnly, haveS = a, true
		}
		return !(haveU && haveS)
	})
	_, rawTimeout := net.DialContext(context.Background(), "tcp", unbound.String()+":80")
	_, rawRefused := net.DialContext(context.Background(), "tcp", sshOnly.String()+":80")

	// The regression shape: the HTTP client hands back dial errors
	// wrapped in *url.Error, which is not itself assertable to
	// net.Error the way the raw dial error is. IsTimeout must classify
	// both shapes identically.
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"raw timeout", rawTimeout, true},
		{"url.Error timeout", &url.Error{Op: "Get", URL: "http://" + unbound.String() + "/", Err: rawTimeout}, true},
		{"fmt-wrapped timeout", fmt.Errorf("fetch root: %w", rawTimeout), true},
		{"raw refusal", rawRefused, false},
		{"url.Error refusal", &url.Error{Op: "Get", URL: "http://" + sshOnly.String() + "/", Err: rawRefused}, false},
		{"context deadline", context.DeadlineExceeded, true},
		{"context canceled", context.Canceled, false},
		{"nil", nil, false},
	}
	for _, c := range cases {
		if got := IsTimeout(c.err); got != c.want {
			t.Errorf("IsTimeout(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	_, net := testSetup(t)
	s, err := New(net, Config{Attempts: 4, RetryBackoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		if got, want := s.retryDelay(attempt), 50*time.Millisecond<<uint(attempt); got != want {
			t.Errorf("attempt %d: delay %v, want %v", attempt, got, want)
		}
	}
}

func TestRetriesOnlyOnTimeouts(t *testing.T) {
	cloud, net := testSetup(t)
	net.RecordProbes(true)
	clock := ratelimit.NewFakeClock(time.Unix(0, 0))
	s, err := New(net, Config{
		Rate: 1e6, Workers: 1, Clock: clock,
		Attempts: 3, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var unbound, sshOnly ipaddr.Addr
	var haveU, haveS bool
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if !st.Bound && !haveU {
			unbound, haveU = a, true
		}
		if st.Bound && st.Ports == cloudsim.SSHOnly && !st.Slow && !haveS {
			sshOnly, haveS = a, true
		}
		return !(haveU && haveS)
	})
	ctx := context.Background()

	// Refusals are definitive: an SSH-only IP refuses 80 and 443 and
	// answers 22, so even with Attempts=3 it sees exactly 3 probes.
	stats := &Stats{}
	open, err := s.scanIP(ctx, sshOnly, stats)
	if err != nil {
		t.Fatal(err)
	}
	if open != store.PortSSH {
		t.Errorf("sshOnly open = %b, want SSH bit", open)
	}
	if got := net.ProbeCount(0, sshOnly); got != 3 {
		t.Errorf("sshOnly probe count = %d, want 3 (refusals must not retry)", got)
	}
	if stats.Retries != 0 {
		t.Errorf("sshOnly retries = %d, want 0", stats.Retries)
	}

	// Timeouts retry: an unbound IP times out on 80, 443 and 22, each
	// probed Attempts times.
	stats = &Stats{}
	if _, err := s.scanIP(ctx, unbound, stats); err != nil {
		t.Fatal(err)
	}
	if got := net.ProbeCount(0, unbound); got != 9 {
		t.Errorf("unbound probe count = %d, want 9 (3 ports x 3 attempts)", got)
	}
	if stats.Retries != 6 {
		t.Errorf("unbound retries = %d, want 6", stats.Retries)
	}
	if stats.Probes != 9 {
		t.Errorf("unbound probes = %d, want 9", stats.Probes)
	}
}

func TestRetriesRecoverInjectedLoss(t *testing.T) {
	cloud, net := testSetup(t)
	inj, err := faults.Wrap(net, faults.Scenario{Seed: 17, DialLossPerMille: 300}, faults.Options{Day: net.Day})
	if err != nil {
		t.Fatal(err)
	}
	clock := ratelimit.NewFakeClock(time.Unix(0, 0))
	mk := func(attempts int) *Scanner {
		s, err := New(inj, Config{
			Rate: 1e6, Workers: 32, Clock: clock,
			Attempts: attempts, RetryBackoff: time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	baseline := fastScanner(t, net)
	_, want := collectScan(t, baseline, cloud.Ranges(), nil)

	_, lossy := collectScan(t, mk(1), cloud.Ranges(), nil)
	_, retried := collectScan(t, mk(4), cloud.Ranges(), nil)

	// 30% per-attempt loss with no retries loses a visible slice of
	// the responsive population (a web IP vanishes only when both its
	// port probes are dropped, so the hit is ~10%, not 30%); four
	// attempts (0.3^4 < 1%) recover nearly all of it.
	if float64(lossy.Responsive) > 0.95*float64(want.Responsive) {
		t.Errorf("lossy single-attempt scan found %d of %d responsive; expected heavy loss",
			lossy.Responsive, want.Responsive)
	}
	if float64(retried.Responsive) < 0.97*float64(want.Responsive) {
		t.Errorf("retried scan found %d of %d responsive; retries did not recover loss",
			retried.Responsive, want.Responsive)
	}
	if retried.Retries == 0 {
		t.Error("retried scan reported zero retries")
	}
}

// TestBlackoutHeldProbeUsesFullTimeout drives a probe into a fault
// blackout that holds dials: the held dial waits on the probe
// context's Done, which arms the deadline timer only then, so the
// probe must still last its whole Config.Timeout and be classified as
// a timeout, not as an aborted scan.
func TestBlackoutHeldProbeUsesFullTimeout(t *testing.T) {
	cloud, net := testSetup(t)
	sc := faults.Scenario{Seed: 5, Episodes: []faults.Episode{faults.Blackout("", 0, 0, true)}}
	inj, err := faults.Wrap(net, sc, faults.Options{Day: net.Day})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 40 * time.Millisecond
	s, err := New(inj, Config{Rate: UnlimitedRate, Workers: 1, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	var ip ipaddr.Addr
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		ip = a
		return !cloud.StateAt(0, a).Ports.OpensPort(80)
	})
	start := time.Now()
	ok, perr := s.probe(context.Background(), dialAddress(ip, 80), s.cfg.Timeout)
	elapsed := time.Since(start)
	if ok || !IsTimeout(perr) {
		t.Fatalf("held probe = %v, %v; want a timeout", ok, perr)
	}
	if elapsed < timeout {
		t.Errorf("held probe returned after %v, before its %v timeout", elapsed, timeout)
	}
	stats := &Stats{}
	open, err := s.scanIP(context.Background(), ip, stats)
	if err != nil || open != 0 || stats.Probes != 3 {
		t.Errorf("scanIP under a held blackout = ports %d, %d probes, err %v; want 0, 3 probes, no error", open, stats.Probes, err)
	}
}

// dialerFunc adapts a function to netsim.Dialer.
type dialerFunc func(ctx context.Context, network, address string) (net.Conn, error)

func (f dialerFunc) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return f(ctx, network, address)
}

// TestDialErrorIsVerdictOnlyWhenNetError pins what the scanner reads
// into a failed dial: a net.Error, bare or wrapped, is the network's
// answer and the IP counts as probed and unresponsive; any other error
// means the dialer failed (a dead whowas-cloudd data plane), the IP
// was not measured, and the scan aborts with that error instead of
// reporting an empty cloud.
func TestDialErrorIsVerdictOnlyWhenNetError(t *testing.T) {
	ranges, err := ipaddr.NewRangeList([]ipaddr.Prefix{ipaddr.MustParsePrefix("54.1.2.0/28")})
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("data plane down")
	for _, tc := range []struct {
		name    string
		dialErr func(addr string) error
		abort   bool
	}{
		{"timeout", func(string) error { return netsim.ErrTimeout }, false},
		{"refused", func(string) error { return netsim.ErrRefused }, false},
		{"wrapped timeout", func(string) error { return fmt.Errorf("dial: %w", netsim.ErrTimeout) }, false},
		{"plain error", func(string) error { return broken }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := dialerFunc(func(_ context.Context, _, address string) (net.Conn, error) {
				return nil, tc.dialErr(address)
			})
			s, err := New(d, Config{Rate: UnlimitedRate, Workers: 1, Attempts: 2, RetryBackoff: time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			results := make(chan Result, 16)
			stats, err := s.ScanRangesInto(context.Background(), ranges, nil, results, 1)
			_, onceErr := s.ProbeOnce(context.Background(), ipaddr.MustParseAddr("54.1.2.1"), 80, time.Second)
			if !tc.abort {
				if err != nil || onceErr != nil {
					t.Fatalf("scan error %v, ProbeOnce error %v; a verdict is not a failure", err, onceErr)
				}
				if stats.Probed != int64(ranges.Total()) || stats.Responsive != 0 {
					t.Errorf("probed %d responsive %d, want %d and 0", stats.Probed, stats.Responsive, ranges.Total())
				}
				return
			}
			if !errors.Is(err, broken) || !errors.Is(onceErr, broken) {
				t.Fatalf("scan error %v, ProbeOnce error %v; want the dialer's error from both", err, onceErr)
			}
			if stats.Probed != 0 {
				t.Errorf("Probed = %d after a dialer failure, want 0: an unmeasured IP is not an unresponsive one", stats.Probed)
			}
			if stats.Probes != 1 {
				t.Errorf("Probes = %d, want 1: the scan stops at the first failed dial", stats.Probes)
			}
		})
	}
}

// TestScanStopsFeedingAfterFailure: once a dial fails with no verdict
// the scan is over, so the feeder must not walk the rest of the range —
// here a /8 whose last /24 is blacklisted, which a feeder that kept
// walking would count as 256 skips of addresses the failed scan never
// reached.
func TestScanStopsFeedingAfterFailure(t *testing.T) {
	ranges, err := ipaddr.NewRangeList([]ipaddr.Prefix{ipaddr.MustParsePrefix("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	bl := ipaddr.NewSet()
	last24 := ipaddr.MustParsePrefix("10.255.255.0/24")
	for a := last24.First(); a <= last24.Last(); a++ {
		bl.Add(a)
	}
	broken := errors.New("data plane down")
	var dials atomic.Int64
	d := dialerFunc(func(context.Context, string, string) (net.Conn, error) {
		if dials.Add(1) == 1 {
			return nil, broken
		}
		return nil, netsim.ErrTimeout
	})
	s, err := New(d, Config{Rate: UnlimitedRate, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.ScanRangesInto(context.Background(), ranges, bl, make(chan Result, 16), 4)
	if !errors.Is(err, broken) {
		t.Fatalf("scan error %v, want the dialer's error", err)
	}
	if stats.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0: the feeder walked on after the scan failed", stats.Skipped)
	}
}
