package cloudapi

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/dnssim"
	"whowas/internal/ipaddr"
	"whowas/internal/websim"
)

// conformanceConfig is a tiny two-region EC2-like cloud shared by the
// boundary tests; small enough to exhaustively sweep.
func conformanceConfig() SimConfig {
	return SimConfig{
		Name:      "conf-ec2",
		Kind:      websim.EC2Like,
		Days:      6,
		Seed:      91,
		BaseOctet: 54,
		Regions: []cloudsim.RegionConfig{
			{Name: "east", Prefixes22: 2, VPC22: 1},
			{Name: "south", Prefixes22: 1, VPC22: 0},
		},
		Population: cloudsim.PopulationConfig{
			TargetResponsive:     0.237,
			Growth:               0.033,
			SSHOnly:              0.259,
			HTTPOnly:             0.380,
			HTTPSOnly:            0.055,
			HTTPBoth:             0.306,
			HTTPFailRate:         0.006,
			DailyBackgroundChurn: 0.05,
			SingletonFrac:        0.788,
			SmallFrac:            0.208,
			MediumFrac:           0.0028,
			EphemeralFrac:        0.114,
			WebClusters:          250,
			VPCClusterShare:      0.27,
			RegisteredDNSShare:   0.55,
		},
	}
}

// conformanceClouds builds one cloud per implementation under test:
// an InProcess used directly, and a Client speaking to a daemon that
// wraps a second, identically configured InProcess. Separate
// underlying simulators keep transient-loss bookkeeping independent,
// exactly as two real campaigns would be.
func conformanceClouds(t *testing.T) (truth *InProcess, impls map[string]Cloud) {
	t.Helper()
	direct, err := NewInProcess(conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	backing, err := NewInProcess(conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backing, ServerConfig{DataListeners: 2})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	client, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return direct, map[string]Cloud{"inprocess": direct, "wire": client}
}

func TestCloudConformance(t *testing.T) {
	t.Run("wire-silent-data-plane", testSilentDataPlane)
	truth, impls := conformanceClouds(t)
	wantInfo := truth.Info()
	ctx := context.Background()

	for name, c := range impls {
		t.Run(name, func(t *testing.T) {
			info := c.Info()
			if name == "wire" && len(info.DataAddrs) != 2 {
				t.Errorf("wire info advertises %d data listeners, want 2", len(info.DataAddrs))
			}
			info.DataAddrs = nil
			if !reflect.DeepEqual(info, wantInfo) {
				t.Errorf("Info = %+v, want %+v", info, wantInfo)
			}
			if !info.IsEC2Like() {
				t.Error("EC2-like cloud reports IsEC2Like() == false")
			}
			if c.Days() != wantInfo.Days {
				t.Errorf("Days = %d, want %d", c.Days(), wantInfo.Days)
			}
			if err := c.Health(ctx); err != nil {
				t.Errorf("Health: %v", err)
			}

			// The address layout must agree with ground truth at every
			// address, plus the boundary just outside the range.
			if got, want := c.Ranges().Total(), truth.Ranges().Total(); got != want {
				t.Fatalf("Ranges().Total() = %d, want %d", got, want)
			}
			mismatches := 0
			truth.Ranges().Each(func(a ipaddr.Addr) bool {
				if c.RegionOf(a) != truth.RegionOf(a) {
					mismatches++
				}
				return mismatches < 5
			})
			if mismatches > 0 {
				t.Errorf("%d addresses disagree with ground-truth layout", mismatches)
			}
			first, _ := truth.Ranges().AtIndex(0)
			outside := first - 1
			if c.RegionOf(outside) != "" {
				t.Errorf("address outside the cloud mapped to region %q", c.RegionOf(outside))
			}

			// Day scheduling round-trips; out-of-range days are rejected.
			if c.Day() != 0 {
				t.Errorf("initial Day = %d", c.Day())
			}
			if err := c.SetDay(ctx, 3); err != nil {
				t.Fatalf("SetDay(3): %v", err)
			}
			if c.Day() != 3 {
				t.Errorf("Day after SetDay(3) = %d", c.Day())
			}
			for _, bad := range []int{-1, wantInfo.Days} {
				if err := c.SetDay(ctx, bad); err == nil {
					t.Errorf("SetDay(%d) accepted", bad)
				}
			}
			if c.Day() != 3 {
				t.Errorf("rejected SetDay moved the day to %d", c.Day())
			}

			// Ground-truth snapshots match the direct census.
			for _, day := range []int{0, 3} {
				want, err := truth.Snapshot(ctx, day)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Snapshot(ctx, day)
				if err != nil {
					t.Fatalf("Snapshot(%d): %v", day, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Snapshot(%d) = %+v, want %+v", day, got, want)
				}
			}
			if _, err := c.Snapshot(ctx, wantInfo.Days); err == nil {
				t.Error("out-of-range snapshot accepted")
			}

			if err := c.SetDay(ctx, 0); err != nil {
				t.Fatal(err)
			}

			testResolverConformance(t, truth, c)
			testDialConformance(t, truth, c)

			// Close is idempotent.
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

// testSilentDataPlane is the wire's real-socket timeout case (the one
// behaviour only a kernel-TCP dialer has): a data-plane peer that
// accepts and never answers holds the dial until the caller's real
// deadline, and the failure is the timeout-class net.Error the scanner
// classifies as an unresponsive IP.
func testSilentDataPlane(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := &Client{info: Info{DataAddrs: []string{ln.Addr().String()}}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	conn, err := c.DialContext(ctx, "tcp", "54.9.9.9:80")
	if err == nil {
		_ = conn.Close()
		t.Fatal("dial through a silent data plane succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("silent data plane error = %v, want timeout net.Error", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("dial returned after %v, want to block until the deadline", elapsed)
	}
}

// testResolverConformance compares DNS answers against the
// ground-truth resolver for a bound IP, an unbound IP, and junk.
func testResolverConformance(t *testing.T, truth *InProcess, c Cloud) {
	t.Helper()
	ctx := context.Background()
	day := 0
	boundIP, unboundIP := findConformanceIPs(t, truth, day)
	ref := truth.Resolver(day)
	r := c.Resolver(day)
	for _, ip := range []ipaddr.Addr{boundIP, unboundIP} {
		name := dnssim.PublicName(ip, truth.RegionOf(ip))
		want, wantErr := ref.LookupPublicName(ctx, name)
		got, gotErr := r.LookupPublicName(ctx, name)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("lookup %s: err %v, ground truth %v", name, gotErr, wantErr)
		}
		if got != want {
			t.Errorf("lookup %s = %+v, want %+v", name, got, want)
		}
	}
	if _, err := r.LookupPublicName(ctx, "not-an-ec2-name.example.com"); err == nil {
		t.Error("junk DNS name resolved")
	}
}

// findConformanceIPs picks, from ground truth on the given day, a
// clean web IP (HTTP on 80), an SSH-only IP (bound, 80 closed), and
// an unbound IP.
func findConformanceIPs(t *testing.T, truth *InProcess, day int) (web, unbound ipaddr.Addr) {
	t.Helper()
	web, unbound, _ = findConformanceIPs3(t, truth, day)
	return web, unbound
}

func findConformanceIPs3(t testing.TB, truth *InProcess, day int) (web, unbound, sshOnly ipaddr.Addr) {
	t.Helper()
	truth.Ranges().Each(func(a ipaddr.Addr) bool {
		st := truth.cloud.StateAt(day, a)
		switch {
		case web == 0 && st.Bound && st.Web && st.Ports.OpensPort(80) && !st.Slow && !st.HTTPFail && !st.Down:
			web = a
		case unbound == 0 && !st.Bound:
			unbound = a
		case sshOnly == 0 && st.Bound && !st.Ports.OpensPort(80):
			sshOnly = a
		}
		return web == 0 || unbound == 0 || sshOnly == 0
	})
	if web == 0 || unbound == 0 || sshOnly == 0 {
		t.Fatalf("population has no test IPs: web=%s unbound=%s ssh=%s", web, unbound, sshOnly)
	}
	return web, unbound, sshOnly
}

// dialRetry dials with retries to ride out the simulator's transient
// per-(ip,day) loss, which drops the first three attempts to a lossy
// host.
func dialRetry(ctx context.Context, c Cloud, addr string) (net.Conn, error) {
	var conn net.Conn
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		conn, err = c.DialContext(ctx, "tcp", addr)
		var nerr net.Error
		if err == nil || !errors.As(err, &nerr) || !nerr.Timeout() {
			return conn, err
		}
	}
	return conn, err
}

// testDialConformance drives the data plane: a web IP must serve the
// same page either way, an unbound IP must surface a timeout-class
// error, and a closed port a refusal-class error.
func testDialConformance(t *testing.T, truth *InProcess, c Cloud) {
	t.Helper()
	ctx := context.Background()
	day := 0
	webIP, unboundIP, sshIP := findConformanceIPs3(t, truth, day)

	wantStatus, wantBody := fetchRaw(t, truth, webIP)
	gotStatus, gotBody := fetchRaw(t, c, webIP)
	if gotStatus != wantStatus || gotBody != wantBody {
		t.Errorf("page for %s differs: status %d vs %d, %d vs %d body bytes",
			webIP, gotStatus, wantStatus, len(gotBody), len(wantBody))
	}

	// Unbound address: the scanner depends on a net.Error that reports
	// Timeout() == true.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if conn, err := c.DialContext(dctx, "tcp", unboundIP.String()+":80"); err == nil {
		_ = conn.Close()
		t.Errorf("dial of unbound %s succeeded", unboundIP)
	} else {
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Errorf("unbound dial error = %v, want timeout net.Error", err)
		}
	}

	// Bound host, closed port: refusal, not timeout.
	if conn, err := dialRetry(ctx, c, sshIP.String()+":80"); err == nil {
		_ = conn.Close()
		t.Errorf("dial of closed port on %s succeeded", sshIP)
	} else {
		var nerr net.Error
		if !errors.As(err, &nerr) || nerr.Timeout() {
			t.Errorf("closed-port dial error = %v, want non-timeout net.Error", err)
		}
	}

	// Unsupported networks are rejected outright.
	if _, err := c.DialContext(ctx, "udp", webIP.String()+":53"); err == nil {
		t.Error("udp dial accepted")
	}
}

// fetchRaw issues one HTTP/1.1 GET over the cloud's data plane and
// returns the status and body.
func fetchRaw(t *testing.T, c Cloud, ip ipaddr.Addr) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := dialRetry(ctx, c, ip.String()+":80")
	if err != nil {
		t.Fatalf("dial %s: %v", ip, err)
	}
	defer conn.Close()
	req, err := http.NewRequest(http.MethodGet, "http://"+ip.String()+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("User-Agent", "conformance-test")
	if err := req.Write(conn); err != nil {
		t.Fatalf("write request: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}
