package faults

import (
	"bytes"
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/netsim"
	"whowas/internal/scanner"
)

func testNet(t testing.TB) (*cloudsim.Cloud, *netsim.Network) {
	t.Helper()
	cloud, err := cloudsim.New(cloudsim.DefaultEC2Config(1024, 71))
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(cloud)
	if err != nil {
		t.Fatal(err)
	}
	return cloud, n
}

func wrap(t testing.TB, inner netsim.Dialer, sc Scenario, opts Options) *Injector {
	t.Helper()
	inj, err := Wrap(inner, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func findWeb(t testing.TB, cloud *cloudsim.Cloud) ipaddr.Addr {
	t.Helper()
	var out ipaddr.Addr
	found := false
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if st.Bound && st.Web && st.Ports.OpensPort(80) && !st.Slow && !st.HTTPFail && !st.Down {
			out, found = a, true
			return false
		}
		return true
	})
	if !found {
		t.Skip("no clean web IP in sample cloud")
	}
	return out
}

func TestWrapValidation(t *testing.T) {
	if _, err := Wrap(nil, Scenario{}, Options{}); err == nil {
		t.Error("nil dialer accepted")
	}
	_, n := testNet(t)
	if _, err := Wrap(n, Scenario{DialLossPerMille: 1500}, Options{}); err == nil {
		t.Error("out-of-range loss accepted")
	}
	if _, err := Wrap(n, Scenario{Episodes: []Episode{{Kind: "meteor"}}}, Options{}); err == nil {
		t.Error("unknown episode kind accepted")
	}
	if _, err := Wrap(n, Scenario{Episodes: []Episode{LossRamp(5, 2, 0, 100)}}, Options{}); err == nil {
		t.Error("inverted episode window accepted")
	}
}

func TestZeroScenarioIsTransparent(t *testing.T) {
	cloud, n := testNet(t)
	inj := wrap(t, n, Scenario{}, Options{})
	ip := findWeb(t, cloud)
	c, err := inj.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err != nil {
		t.Fatalf("clean dial through zero scenario: %v", err)
	}
	c.Close()
}

// TestDialLossDeterministicAndRecoverable checks the core contract:
// the same (ip, port, day, attempt) always rolls the same decision,
// and a retry (next attempt) rolls an independent one, so heavy loss
// is recoverable by retrying.
func TestDialLossDeterministicAndRecoverable(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 3, DialLossPerMille: 400}
	mk := func() *Injector { return wrap(t, n, sc, Options{Day: n.Day}) }

	ctx := context.Background()
	outcome := func(inj *Injector, ip ipaddr.Addr) []bool {
		var out []bool
		for attempt := 0; attempt < 6; attempt++ {
			c, err := inj.DialContext(ctx, "tcp", ip.String()+":80")
			if c != nil {
				c.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}

	ip := findWeb(t, cloud)
	a := outcome(mk(), ip)
	b := outcome(mk(), ip)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d differs across identical injectors: %v vs %v", i, a, b)
		}
	}

	// Across many IPs: first-attempt failure rate ~40%, and nearly all
	// IPs succeed within 6 attempts (0.4^6 < 0.5%).
	var firstFail, neverOK, total int
	cloud.Ranges().Each(func(addr ipaddr.Addr) bool {
		st := cloud.StateAt(0, addr)
		if !st.Bound || !st.Web || !st.Ports.OpensPort(80) || st.Slow || st.HTTPFail || st.Down {
			return true
		}
		total++
		res := outcome(mk(), addr)
		if !res[0] {
			firstFail++
		}
		ok := false
		for _, r := range res {
			ok = ok || r
		}
		if !ok {
			neverOK++
		}
		return total < 500
	})
	if total < 100 {
		t.Skip("not enough web IPs")
	}
	frac := float64(firstFail) / float64(total)
	if frac < 0.30 || frac > 0.50 {
		t.Errorf("first-attempt loss %.3f, want ~0.40", frac)
	}
	if float64(neverOK) > 0.02*float64(total) {
		t.Errorf("%d/%d IPs never recovered within 6 attempts", neverOK, total)
	}
}

func TestLossRampEpisode(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 9, Episodes: []Episode{LossRamp(0, 10, 0, 1000)}}
	ctx := context.Background()

	lossAt := func(day int) float64 {
		n.SetDay(day)
		inj := wrap(t, n, sc, Options{Day: n.Day})
		var fail, total int
		cloud.Ranges().Each(func(addr ipaddr.Addr) bool {
			st := cloud.StateAt(day, addr)
			if !st.Bound || !st.Web || !st.Ports.OpensPort(80) || st.Slow || st.HTTPFail || st.Down {
				return true
			}
			total++
			c, err := inj.DialContext(ctx, "tcp", addr.String()+":80")
			if c != nil {
				c.Close()
			}
			if err != nil {
				fail++
			}
			return total < 400
		})
		return float64(fail) / float64(total)
	}

	early, mid, late := lossAt(0), lossAt(5), lossAt(10)
	n.SetDay(0)
	if early > 0.05 {
		t.Errorf("day 0 loss %.3f, want ~0 at ramp start", early)
	}
	if mid < 0.35 || mid > 0.65 {
		t.Errorf("day 5 loss %.3f, want ~0.5 mid-ramp", mid)
	}
	if late < 0.95 {
		t.Errorf("day 10 loss %.3f, want ~1.0 at ramp end", late)
	}
}

func TestRegionalBlackout(t *testing.T) {
	cloud, n := testNet(t)
	// Black out the region of the first address on days 2-3 only.
	first, _ := cloud.Ranges().AtIndex(0)
	region := cloud.RegionOf(first)
	reg := metrics.NewRegistry()
	sc := Scenario{Seed: 5, Episodes: []Episode{Blackout(region, 2, 3, false)}}
	inj := wrap(t, n, sc, Options{Day: n.Day, RegionOf: cloud.RegionOf, Metrics: reg})
	ctx := context.Background()

	dial := func(ip ipaddr.Addr) error {
		c, err := inj.DialContext(ctx, "tcp", ip.String()+":80")
		if c != nil {
			c.Close()
		}
		return err
	}

	// A web IP in the blacked-out region and one outside it.
	var inRegion, outRegion ipaddr.Addr
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(2, a)
		if !st.Bound || !st.Web || !st.Ports.OpensPort(80) || st.Slow || st.HTTPFail || st.Down {
			return true
		}
		if cloud.RegionOf(a) == region && inRegion == 0 {
			inRegion = a
		}
		if cloud.RegionOf(a) != region && outRegion == 0 {
			outRegion = a
		}
		return inRegion == 0 || outRegion == 0
	})
	if inRegion == 0 || outRegion == 0 {
		t.Skip("could not find IPs inside and outside the region")
	}

	n.SetDay(2)
	if err := dial(inRegion); !scanner.IsTimeout(err) {
		t.Errorf("blackout dial: err = %v, want timeout", err)
	}
	if err := dial(outRegion); err != nil {
		t.Errorf("out-of-region dial during blackout failed: %v", err)
	}
	n.SetDay(4)
	if err := dial(inRegion); err != nil {
		t.Errorf("post-blackout dial failed: %v", err)
	}
	n.SetDay(0)
	if got := reg.Snapshot().Counters["faults.blackout_drops"]; got != 1 {
		t.Errorf("faults.blackout_drops = %d, want 1", got)
	}
}

func TestBlackoutHoldBurnsDeadline(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 5, Episodes: []Episode{Blackout("", 0, 0, true)}}
	inj := wrap(t, n, sc, Options{Day: n.Day})
	ip := findWeb(t, cloud)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := inj.DialContext(ctx, "tcp", ip.String()+":80")
	if !scanner.IsTimeout(err) {
		t.Errorf("held dial err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("held dial returned after %v, want ~30ms (full deadline)", elapsed)
	}
}

func TestFlapWindows(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 11, FlapPerMille: 1000, FlapPeriodDays: 4, FlapDownDays: 1}
	inj := wrap(t, n, sc, Options{Day: n.Day})
	ip := findWeb(t, cloud)
	ctx := context.Background()

	// With every IP flapping 1 day in 4, exactly one day of any
	// 4-day window must fail, and the pattern must repeat with the
	// period.
	var downDays []int
	for day := 0; day < 8; day++ {
		n.SetDay(day)
		c, err := inj.DialContext(ctx, "tcp", ip.String()+":80")
		if c != nil {
			c.Close()
		}
		if err != nil {
			downDays = append(downDays, day)
		}
	}
	n.SetDay(0)
	if len(downDays) != 2 {
		t.Fatalf("down days in 8-day window = %v, want exactly 2", downDays)
	}
	if downDays[1]-downDays[0] != 4 {
		t.Errorf("flap windows %v not separated by the 4-day period", downDays)
	}
}

func TestSlowNetworkEpisodeDelaysDials(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 2, Episodes: []Episode{SlowNetwork(0, 0, 25)}}
	reg := metrics.NewRegistry()
	inj := wrap(t, n, sc, Options{Day: n.Day, Metrics: reg})
	ip := findWeb(t, cloud)

	start := time.Now()
	c, err := inj.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("dial took %v, want >= 25ms injected latency", elapsed)
	}
	// An impatient caller times out instead.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := inj.DialContext(ctx, "tcp", ip.String()+":80"); !scanner.IsTimeout(err) {
		t.Errorf("impatient dial err = %v, want timeout", err)
	}
	if got := reg.Snapshot().Counters["faults.dials_delayed"]; got != 2 {
		t.Errorf("faults.dials_delayed = %d, want 2", got)
	}
}

func TestMidStreamReset(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 7, ResetPerMille: 1000, ResetAfterBytes: 64}
	reg := metrics.NewRegistry()
	inj := wrap(t, n, sc, Options{Day: n.Day, Metrics: reg})
	ip := findWeb(t, cloud)

	c, err := inj.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if err == nil {
		t.Fatalf("read %d bytes with no reset", len(got))
	}
	if len(got) != 64 {
		t.Errorf("delivered %d bytes before reset, want exactly the 64-byte budget", len(got))
	}
	if !strings.Contains(err.Error(), "connection reset") {
		t.Errorf("reset error = %v", err)
	}
	if got := reg.Snapshot().Counters["faults.resets"]; got != 1 {
		t.Errorf("faults.resets = %d, want 1", got)
	}
}

func TestTruncatedStream(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 7, TruncatePerMille: 1000, TruncateAfterBytes: 48}
	inj := wrap(t, n, sc, Options{Day: n.Day})
	ip := findWeb(t, cloud)

	c, err := inj.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("truncation must end in clean EOF, got %v", err)
	}
	if len(got) != 48 {
		t.Errorf("delivered %d bytes, want exactly the 48-byte budget", len(got))
	}
}

func TestStalledFirstRead(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 4, StallPerMille: 1000, StallMS: 40}
	inj := wrap(t, n, sc, Options{Day: n.Day})
	ip := findWeb(t, cloud)

	c, err := inj.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /robots.txt HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 16)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Errorf("first read returned after %v, want >= 40ms stall", elapsed)
	}
	// Subsequent reads are not stalled.
	start = time.Now()
	_, _ = c.Read(buf)
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("second read stalled %v", elapsed)
	}
}

func TestStalledConnUnblocksOnClose(t *testing.T) {
	cloud, n := testNet(t)
	sc := Scenario{Seed: 4, StallPerMille: 1000, StallMS: 10_000}
	inj := wrap(t, n, sc, Options{Day: n.Day})
	ip := findWeb(t, cloud)
	c, err := inj.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := c.Read(buf)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read on closed stalled conn returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read did not unblock on Close — this is the wedge the round deadline exists for")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	in := `{
		"name": "chaos",
		"seed": 42,
		"dial_loss_per_mille": 220,
		"flap_per_mille": 10,
		"episodes": [
			{"kind": "loss-ramp", "from_day": 0, "to_day": 30, "end_per_mille": 150},
			{"kind": "blackout", "from_day": 40, "to_day": 44, "region": "sa-east-1", "hold": true},
			{"kind": "slow-network", "from_day": 60, "to_day": 70, "extra_latency_ms": 3}
		]
	}`
	sc, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "chaos" || sc.Seed != 42 || sc.DialLossPerMille != 220 || len(sc.Episodes) != 3 {
		t.Errorf("parsed scenario = %+v", sc)
	}
	if sc.Episodes[1].Region != "sa-east-1" || !sc.Episodes[1].Hold {
		t.Errorf("blackout episode = %+v", sc.Episodes[1])
	}
	// Defaults resolve without clobbering configured values.
	r := sc.WithDefaults()
	if r.FlapPeriodDays != 4 || r.StallMS != 1000 || r.DialLossPerMille != 220 {
		t.Errorf("resolved defaults = %+v", r)
	}
	// Unknown fields and invalid scenarios are rejected.
	if _, err := Load(strings.NewReader(`{"seed": 1, "warp_factor": 9}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{"seed": 1, "dial_loss_per_mille": -5}`)); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestScenarioRejectsOverflow pins the bounds that keep the injector's
// arithmetic in range: each scenario here used to load cleanly and then
// yield a negative dial delay or a per-day loss outside [0,1000].
func TestScenarioRejectsOverflow(t *testing.T) {
	for _, in := range []string{
		`{"dial_latency_ms": 9223372036854}`,
		`{"dial_latency_ms": 3600001}`,
		`{"dial_latency_ms": 10, "dial_jitter_ms": -1}`,
		`{"stall_per_mille": 10, "stall_ms": 9223372036854}`,
		`{"stall_ms": -1}`,
		`{"episodes": [{"kind": "slow-network", "to_day": 1, "extra_latency_ms": 9223372036854}]}`,
		`{"episodes": [{"kind": "slow-network", "to_day": 1, "extra_latency_ms": 2000000},
			{"kind": "slow-network", "to_day": 1, "extra_latency_ms": 2000000}]}`,
		`{"episodes": [{"kind": "loss-ramp", "from_day": -9223372036854775808, "to_day": 9223372036854775807, "end_per_mille": 1000}]}`,
		`{"episodes": [{"kind": "blackout", "from_day": -1, "to_day": 0}]}`,
		`{"episodes": [{"kind": "blackout", "from_day": 0, "to_day": 10001}]}`,
	} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load accepted %s", in)
		}
	}
}

// FuzzScenarioLoad: Load never panics, and every scenario it accepts
// gives a per-day loss in [0,1000] and non-negative injected durations
// on every day its episodes cover.
func FuzzScenarioLoad(f *testing.F) {
	chaos, err := os.ReadFile("../../scenarios/chaos.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chaos)
	f.Add([]byte(`{"seed": 1, "dial_latency_ms": 3600000, "dial_jitter_ms": 3600000, "stall_ms": 3600000,
		"episodes": [{"kind": "slow-network", "to_day": 10000, "extra_latency_ms": 3600000},
		{"kind": "loss-ramp", "from_day": 3, "to_day": 10000, "start_per_mille": 1000}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		inj := &Injector{sc: sc.WithDefaults()}
		if stall := time.Duration(inj.sc.StallMS) * time.Millisecond; stall < 0 {
			t.Fatalf("stall = %v", stall)
		}
		last := 0
		for _, e := range sc.Episodes {
			last = max(last, e.ToDay)
		}
		for day := 0; day <= last; day++ {
			if pm := inj.lossPerMille(day); pm < 0 || pm > 1000 {
				t.Fatalf("day %d: loss %d per-mille outside [0,1000]", day, pm)
			}
			base := time.Duration(inj.sc.DialLatencyMS)*time.Millisecond - time.Duration(inj.sc.DialJitterMS)*time.Millisecond
			if extra := inj.extraLatency(day); extra < 0 || base+extra < 0 {
				t.Fatalf("day %d: base delay %v, extra latency %v", day, base, extra)
			}
		}
	})
}
