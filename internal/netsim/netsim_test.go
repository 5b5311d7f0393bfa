package netsim

import (
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
)

func testNetwork(t testing.TB) (*Network, *cloudsim.Cloud) {
	t.Helper()
	cloud, err := cloudsim.New(cloudsim.DefaultEC2Config(512, 11))
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(cloud)
	if err != nil {
		t.Fatal(err)
	}
	return n, cloud
}

// findIP locates an IP in a given state on day 0.
func findIP(t testing.TB, cloud *cloudsim.Cloud, pred func(cloudsim.IPState) bool) ipaddr.Addr {
	t.Helper()
	var found ipaddr.Addr
	ok := false
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		if pred(cloud.StateAt(0, a)) {
			found, ok = a, true
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("no IP matches predicate")
	}
	return found
}

func TestDialUnboundTimesOut(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return !s.Bound })
	_, err := n.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err == nil {
		t.Fatal("dial to unbound IP succeeded")
	}
	var ne net.Error
	if !asNetError(err, &ne) || !ne.Timeout() {
		t.Errorf("unbound dial error = %v, want timeout", err)
	}
}

// TestProbeAllocations pins what a probe costs the network: a verdict
// allocates nothing, and an answered probe that closes without writing
// costs its connection pair alone — starting the server goroutine
// would cost its closure too.
func TestProbeAllocations(t *testing.T) {
	n, cloud := testNetwork(t)
	n.LossPerMille = 0
	unbound := findIP(t, cloud, func(s cloudsim.IPState) bool { return !s.Bound }).String() + ":80"
	open := findWebIP(t, cloud, 80).String() + ":80"
	ctx := context.Background()
	if a := testing.AllocsPerRun(100, func() { _, _ = n.DialContext(ctx, "tcp", unbound) }); a != 0 {
		t.Errorf("a dropped probe allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		c, err := n.DialContext(ctx, "tcp", open)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}); a != 1 {
		t.Errorf("an answered probe allocates %v times, want 1 (its connection pair)", a)
	}
}

func asNetError(err error, out *net.Error) bool {
	ne, ok := err.(net.Error)
	if ok {
		*out = ne
	}
	return ok
}

func TestDialClosedPortRefused(t *testing.T) {
	n, cloud := testNetwork(t)
	// SSH-only instance: port 80 must be refused, not timed out.
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return s.Bound && s.Ports == cloudsim.SSHOnly && !s.Slow })
	_, err := n.DialContext(context.Background(), "tcp", ip.String()+":80")
	var ne net.Error
	if err == nil || !asNetError(err, &ne) || ne.Timeout() {
		t.Errorf("closed-port dial error = %v, want refused (non-timeout)", err)
	}
}

func TestDialSSHGivesBanner(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return s.Bound && s.Ports == cloudsim.SSHOnly && !s.Slow })
	c, err := n.DialContext(context.Background(), "tcp", ip.String()+":22")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	n2, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n2]), "SSH-2.0-") {
		t.Errorf("banner = %q", buf[:n2])
	}
}

// findWebIP returns a live, non-slow, web-serving IP for the day with
// the given port open and no failure.
func findWebIP(t testing.TB, cloud *cloudsim.Cloud, port int) ipaddr.Addr {
	return findIP(t, cloud, func(s cloudsim.IPState) bool {
		return s.Bound && s.Web && !s.Slow && !s.HTTPFail && !s.Down && s.Ports.OpensPort(port) &&
			pageOK(cloud, s, port)
	})
}

func pageOK(cloud *cloudsim.Cloud, s cloudsim.IPState, port int) bool {
	svc := cloud.ServiceByID(s.ServiceID)
	return svc != nil
}

func TestHTTPFetchOverPipe(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findWebIP(t, cloud, 80)
	client := &http.Client{
		Transport: &http.Transport{DialContext: n.DialContext, DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
	resp, err := client.Get("http://" + ip.String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	profile, rev, ok := cloud.PageOn(0, ip)
	if !ok {
		t.Fatal("ground truth says no page")
	}
	if resp.StatusCode != profile.StatusCode {
		t.Errorf("status = %d, want %d", resp.StatusCode, profile.StatusCode)
	}
	if string(body) != profile.RenderPage(rev) {
		t.Errorf("body mismatch: got %d bytes", len(body))
	}
	if got := resp.Header.Get("Server"); got != profile.Server {
		t.Errorf("Server header = %q, want %q", got, profile.Server)
	}
}

func TestHTTPSFetchOverTLS(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findWebIP(t, cloud, 443)
	client := &http.Client{
		Transport: &http.Transport{
			DialContext:     n.DialContext,
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true},
		},
		Timeout: 5 * time.Second,
	}
	resp, err := client.Get("https://" + ip.String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.TLS == nil || !resp.TLS.HandshakeComplete {
		t.Error("response did not arrive over a completed TLS handshake")
	}
}

func TestRobotsTxtServed(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findWebIP(t, cloud, 80)
	client := &http.Client{Transport: &http.Transport{DialContext: n.DialContext}, Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + ip.String() + "/robots.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "User-agent:") {
		t.Errorf("robots.txt body = %q", body)
	}
}

func TestUnknownPathIs404(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findWebIP(t, cloud, 80)
	client := &http.Client{Transport: &http.Transport{DialContext: n.DialContext}, Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + ip.String() + "/deep/page.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestSlowHostRespectsDeadline(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return s.Bound && s.Slow })
	// Impatient dial (2 s budget): must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := n.DialContext(ctx, "tcp", ip.String()+":22")
	var ne net.Error
	if err == nil || !asNetError(err, &ne) || !ne.Timeout() {
		t.Errorf("impatient dial to slow host = %v, want timeout", err)
	}
	// Patient dial (8 s): must succeed.
	ctx8, cancel8 := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel8()
	c, err := n.DialContext(ctx8, "tcp", ip.String()+":22")
	if err != nil {
		t.Fatalf("patient dial to slow host: %v", err)
	}
	c.Close()
}

func TestTransientLossRecoversOnRetry(t *testing.T) {
	n, cloud := testNetwork(t)
	n.LossPerMille = 1000 // make every host lossy today
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return s.Bound && !s.Slow })
	// A lossy host drops a full scan sequence (3 attempts) and then
	// answers retries — the §4 retry experiment's recovery mechanism.
	var ne net.Error
	for attempt := 1; attempt <= 3; attempt++ {
		_, err := n.DialContext(context.Background(), "tcp", ip.String()+":22")
		if err == nil || !asNetError(err, &ne) || !ne.Timeout() {
			t.Fatalf("attempt %d = %v, want timeout", attempt, err)
		}
	}
	c, err := n.DialContext(context.Background(), "tcp", ip.String()+":22")
	if err != nil {
		t.Fatalf("retry after loss window failed: %v", err)
	}
	c.Close()
	// A new day resets attempt tracking: probes drop again.
	n.SetDay(1)
	if _, err := n.DialContext(context.Background(), "tcp", ip.String()+":22"); err == nil {
		t.Error("after day reset, first attempt succeeded; want drop")
	}
}

func TestTransientLossScopedPerSession(t *testing.T) {
	n, cloud := testNetwork(t)
	n.LossPerMille = 1000 // make every host lossy today
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return s.Bound && !s.Slow })
	var ne net.Error
	mustDrop := func(ctx context.Context, label string) {
		t.Helper()
		_, err := n.DialContext(ctx, "tcp", ip.String()+":22")
		if err == nil || !asNetError(err, &ne) || !ne.Timeout() {
			t.Fatalf("%s = %v, want timeout", label, err)
		}
	}
	// A victim session consumes part of the loss window, then dies
	// mid-probe (simply stops dialing).
	victim := WithProbeSession(context.Background(), "victim")
	mustDrop(victim, "victim attempt 1")
	mustDrop(victim, "victim attempt 2")
	// A fresh session re-measuring the same IP behaves like a first
	// measurement: the full loss window, then recovery. This is what
	// lets a coordinator re-run a dead worker's shard and still match
	// the single-process digest.
	rerun := WithProbeSession(context.Background(), "rerun")
	for attempt := 1; attempt <= 3; attempt++ {
		mustDrop(rerun, "rerun attempt")
	}
	c, err := n.DialContext(rerun, "tcp", ip.String()+":22")
	if err != nil {
		t.Fatalf("rerun retry after loss window failed: %v", err)
	}
	c.Close()
	// The unstamped (in-process) path is its own scope, untouched by
	// either session's history.
	mustDrop(context.Background(), "unstamped attempt 1")
	if got := ProbeSession(context.Background()); got != "" {
		t.Errorf("ProbeSession(background) = %q, want empty", got)
	}
}

func TestSetDayChangesContent(t *testing.T) {
	n, cloud := testNetwork(t)
	// Find an IP that is web on day 0 and unbound at some later day.
	var ip ipaddr.Addr
	var later int
	found := false
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		s0 := cloud.StateAt(0, a)
		if !s0.Web || s0.Slow {
			return true
		}
		for d := 10; d < cloud.Days(); d += 10 {
			if !cloud.StateAt(d, a).Bound {
				ip, later, found = a, d, true
				return false
			}
		}
		return true
	})
	if !found {
		t.Skip("no IP transitions from web to unbound in sample")
	}
	if _, err := n.DialContext(context.Background(), "tcp", ip.String()+":22"); err != nil {
		t.Fatalf("day-0 dial: %v", err)
	}
	n.SetDay(later)
	if _, err := n.DialContext(context.Background(), "tcp", ip.String()+":22"); err == nil {
		t.Error("dial succeeded on day the IP is unbound")
	}
}

func TestProbeRecording(t *testing.T) {
	n, cloud := testNetwork(t)
	n.RecordProbes(true)
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool { return !s.Bound })
	for i := 0; i < 3; i++ {
		_, _ = n.DialContext(context.Background(), "tcp", ip.String()+":80")
	}
	if got := n.ProbeCount(0, ip); got != 3 {
		t.Errorf("ProbeCount = %d, want 3", got)
	}
}

// TestRecordProbesToggledUnderLoad flips accounting while dials and
// requests are in flight — under -race, the check that the flag both
// paths read before taking the network lock is the atomic — and then
// that counting is exact once it is on.
func TestRecordProbesToggledUnderLoad(t *testing.T) {
	n, cloud := testNetwork(t)
	web := findWebIP(t, cloud, 80)
	unbound := findIP(t, cloud, func(s cloudsim.IPState) bool { return !s.Bound })
	const request = "GET /robots.txt HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = n.DialContext(context.Background(), "tcp", unbound.String()+":80")
				if resp, err := rawHTTP(t, n, web, 80, request); err != nil || !strings.HasPrefix(resp, "HTTP/1.1 200") {
					t.Errorf("request under toggling: %.40q, %v", resp, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		n.RecordProbes(i%2 == 0)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	n.RecordProbes(true)
	probes, requests := n.ProbeCount(0, web), n.RequestCount(0, web)
	for i := 0; i < 3; i++ {
		if _, err := rawHTTP(t, n, web, 80, request); err != nil {
			t.Fatal(err)
		}
	}
	if dp, dr := n.ProbeCount(0, web)-probes, n.RequestCount(0, web)-requests; dp != 3 || dr != 3 {
		t.Errorf("3 exchanges counted as %d probes and %d requests", dp, dr)
	}
}

func TestDialRejectsBadInput(t *testing.T) {
	n, _ := testNetwork(t)
	cases := []struct{ network, addr string }{
		{"udp", "1.2.3.4:80"},
		{"tcp", "1.2.3.4"},        // no port
		{"tcp", "1.2.3.4:notnum"}, // bad port
		{"tcp", "nothost:80"},     // bad host
	}
	for _, c := range cases {
		if _, err := n.DialContext(context.Background(), c.network, c.addr); err == nil {
			t.Errorf("DialContext(%q,%q) succeeded", c.network, c.addr)
		}
	}
}

func TestCancelledContext(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findWebIP(t, cloud, 80)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.DialContext(ctx, "tcp", ip.String()+":80"); err == nil {
		t.Error("dial with cancelled context succeeded")
	}
}

func BenchmarkDialUnbound(b *testing.B) {
	n, cloud := testNetwork(b)
	ip := findIP(b, cloud, func(s cloudsim.IPState) bool { return !s.Bound })
	addr := ip.String() + ":80"
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = n.DialContext(ctx, "tcp", addr)
	}
}

func BenchmarkHTTPFetch(b *testing.B) {
	n, cloud := testNetwork(b)
	ip := findWebIP(b, cloud, 80)
	client := &http.Client{Transport: &http.Transport{DialContext: n.DialContext, DisableKeepAlives: true}}
	url := "http://" + ip.String() + "/"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
