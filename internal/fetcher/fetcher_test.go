package fetcher

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/faults"
	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/netsim"
	"whowas/internal/scanner"
	"whowas/internal/store"
)

func testSetup(t testing.TB) (*cloudsim.Cloud, *netsim.Network, *Fetcher) {
	t.Helper()
	cloud, err := cloudsim.New(cloudsim.DefaultEC2Config(1024, 51))
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(cloud)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(net, Config{Workers: 32, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, net, f
}

func findIP(t testing.TB, cloud *cloudsim.Cloud, pred func(cloudsim.IPState) bool) ipaddr.Addr {
	t.Helper()
	var out ipaddr.Addr
	found := false
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		if pred(cloud.StateAt(0, a)) {
			out, found = a, true
			return false
		}
		return true
	})
	if !found {
		t.Skip("no IP matches predicate in sample cloud")
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil dialer accepted")
	}
	_, net, _ := testSetup(t)
	f, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.Workers != DefaultWorkers() || f.cfg.Timeout != 10*time.Second {
		t.Errorf("defaults = %+v", f.cfg)
	}
	// The hardware-scaled pool never shrinks below the paper's 250.
	if DefaultWorkers() < 250 {
		t.Errorf("DefaultWorkers() = %d, want >= 250", DefaultWorkers())
	}
	if !strings.Contains(DefaultUserAgent, "contact:") {
		t.Error("default User-Agent lacks contact note (§7)")
	}
}

func webPred(port cloudsim.PortProfile) func(cloudsim.IPState) bool {
	return func(s cloudsim.IPState) bool {
		return s.Bound && s.Web && s.Ports == port && !s.Slow && !s.HTTPFail && !s.Down
	}
}

func TestFetchHTTPPage(t *testing.T) {
	cloud, _, f := testSetup(t)
	ip := findIP(t, cloud, webPred(cloudsim.HTTPBoth))
	page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTP | store.PortHTTPS})
	prof, rev, ok := cloud.PageOn(0, ip)
	if !ok {
		t.Fatal("ground truth has no page")
	}
	if page.Scheme != "http" {
		t.Errorf("scheme = %q, want http (port 80 open)", page.Scheme)
	}
	if page.RobotsDenied != prof.RobotsDeny {
		t.Errorf("RobotsDenied = %v, ground truth %v", page.RobotsDenied, prof.RobotsDeny)
	}
	if prof.RobotsDeny {
		if page.Status != 0 {
			t.Error("denied page still fetched")
		}
		return
	}
	if page.Status != prof.StatusCode {
		t.Errorf("status = %d, want %d", page.Status, prof.StatusCode)
	}
	wantBody := prof.RenderPage(rev)
	if string(page.Body) != wantBody {
		t.Errorf("body len = %d, want %d", len(page.Body), len(wantBody))
	}
}

func TestFetchHTTPSOnly(t *testing.T) {
	cloud, _, f := testSetup(t)
	ip := findIP(t, cloud, webPred(cloudsim.HTTPSOnly))
	page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTPS})
	if page.Scheme != "https" {
		t.Fatalf("scheme = %q, want https", page.Scheme)
	}
	if page.Err != nil {
		t.Fatalf("https fetch failed: %v", page.Err)
	}
	if !page.RobotsDenied && page.Status == 0 {
		t.Error("no HTTP response on https-only fetch")
	}
}

func TestFetchFailingIP(t *testing.T) {
	cloud, _, f := testSetup(t)
	ip := findIP(t, cloud, func(s cloudsim.IPState) bool {
		return s.Bound && s.Web && s.HTTPFail && !s.Slow && s.Ports == cloudsim.HTTPBoth
	})
	page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTP})
	// The backend answers 503 (or resets); either way the IP must not
	// look like a healthy 200.
	if page.Status == 200 {
		t.Errorf("failing IP returned 200")
	}
}

// bigBodyDialer serves every connection itself: robots.txt is a 404
// and "/" a text page of size bytes.
type bigBodyDialer struct{ size int }

func (d bigBodyDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		br := bufio.NewReader(server)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			resp := &http.Response{StatusCode: 404, ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Body: http.NoBody, Request: req}
			if req.URL.Path == "/" {
				resp.StatusCode = 200
				resp.Header.Set("Content-Type", "text/plain")
				resp.ContentLength = int64(d.size)
				resp.Body = io.NopCloser(strings.NewReader(strings.Repeat("x", d.size)))
			}
			// The client stops reading at the cap and closes the pipe.
			if resp.Write(server) != nil {
				return
			}
		}
	}()
	return client, nil
}

// TestBodyTruncation: a page larger than the §4 cap is stored as
// exactly MaxBodyBytes bytes, and fetcher.body_bytes counts what was
// stored.
func TestBodyTruncation(t *testing.T) {
	reg := metrics.NewRegistry()
	f, err := New(bigBodyDialer{size: MaxBodyBytes + 4096}, Config{Workers: 1, Timeout: 5 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	page := f.FetchIP(context.Background(), scanner.Result{IP: ipaddr.MustParseAddr("10.0.0.1"), OpenPorts: store.PortHTTP})
	if page.Err != nil || page.Status != 200 {
		t.Fatalf("fetch: status %d, err %v", page.Status, page.Err)
	}
	if len(page.Body) != MaxBodyBytes {
		t.Errorf("body = %d bytes, want exactly %d", len(page.Body), MaxBodyBytes)
	}
	if got := reg.Snapshot().Counters["fetcher.body_bytes"]; got != MaxBodyBytes {
		t.Errorf("fetcher.body_bytes = %d, want %d", got, MaxBodyBytes)
	}
}

// exchangePool runs the targets through Exchange on a pool of workers,
// the way a lane's fetch stage does; pages[i] is targets[i]'s.
func exchangePool(f *Fetcher, workers int, targets []scanner.Result) []Page {
	pages := make([]Page, len(targets))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(targets); i += workers {
				pages[i] = f.Exchange(context.Background(), targets[i])
			}
		}()
	}
	wg.Wait()
	return pages
}

func TestRunPool(t *testing.T) {
	cloud, _, f := testSetup(t)
	// Feed a batch of mixed results through a pool of Exchange loops.
	var targets []scanner.Result
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if !st.Bound || st.Slow {
			return true
		}
		var ports uint8
		switch st.Ports {
		case cloudsim.SSHOnly:
			ports = store.PortSSH
		case cloudsim.HTTPOnly:
			ports = store.PortHTTP
		case cloudsim.HTTPSOnly:
			ports = store.PortHTTPS
		case cloudsim.HTTPBoth:
			ports = store.PortHTTP | store.PortHTTPS
		}
		targets = append(targets, scanner.Result{IP: a, OpenPorts: ports})
		return len(targets) < 200
	})
	sshPages, webPages := 0, 0
	for i, page := range exchangePool(f, 8, targets) {
		if page.IP != targets[i].IP || page.OpenPorts != targets[i].OpenPorts {
			t.Errorf("page %d is %s/%d, want %s/%d", i, page.IP, page.OpenPorts, targets[i].IP, targets[i].OpenPorts)
		}
		if page.OpenPorts&(store.PortHTTP|store.PortHTTPS) == 0 {
			sshPages++
			if page.Status != 0 {
				t.Error("SSH-only page has HTTP status")
			}
		} else {
			webPages++
		}
	}
	if sshPages == 0 || webPages == 0 {
		t.Errorf("page mix: ssh=%d web=%d", sshPages, webPages)
	}
}

func TestTextualType(t *testing.T) {
	cases := map[string]bool{
		"text/html":                true,
		"text/html; charset=utf-8": true,
		"TEXT/PLAIN":               true,
		"application/json":         true,
		"application/xml":          true,
		"application/xhtml+xml":    true,
		"application/octet-stream": false,
		"image/png":                false,
		"video/mp4":                false,
		"audio/mpeg":               false,
		"application/pdf":          false,
		"":                         false,
	}
	for in, want := range cases {
		if got := textualType(in); got != want {
			t.Errorf("textualType(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestRobotsDisallowsRoot(t *testing.T) {
	ua := DefaultUserAgent
	cases := []struct {
		name, body string
		want       bool
	}{
		{"empty", "", false},
		{"wildcard deny", "User-agent: *\nDisallow: /\n", true},
		{"wildcard deny subpath only", "User-agent: *\nDisallow: /admin/\n", false},
		{"deny other agent", "User-agent: Googlebot\nDisallow: /\n", false},
		{"deny us by name", "User-agent: whowas-research-scanner\nDisallow: /\n", true},
		{"allow overrides for us", "User-agent: whowas-research-scanner\nAllow: /\nUser-agent: *\nDisallow: /\n", false},
		{"comments and case", "# block all\nUSER-AGENT: *\nDISALLOW: /\n", true},
		{"empty disallow allows", "User-agent: *\nDisallow:\n", false},
		{"multiple groups", "User-agent: a\nDisallow: /x\n\nUser-agent: *\nDisallow: /\n", true},
	}
	for _, c := range cases {
		if got := RobotsDisallowsRoot(c.body, ua); got != c.want {
			t.Errorf("%s: RobotsDisallowsRoot = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPageAvailable(t *testing.T) {
	p := Page{}
	if p.Available() {
		t.Error("zero page available")
	}
	p.Status = 404
	if !p.Available() {
		t.Error("404 page not available (any response counts, §4)")
	}
}

func BenchmarkFetchIP(b *testing.B) {
	cloud, _, f := testSetup(b)
	var ip ipaddr.Addr
	found := false
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if st.Bound && st.Web && !st.Slow && !st.HTTPFail && !st.Down && st.Ports == cloudsim.HTTPBoth {
			ip, found = a, true
			return false
		}
		return true
	})
	if !found {
		b.Skip("no suitable IP")
	}
	res := scanner.Result{IP: ip, OpenPorts: store.PortHTTP | store.PortHTTPS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FetchIP(context.Background(), res)
	}
}

func TestIsTransient(t *testing.T) {
	timeout := netsim.ErrTimeout
	refused := netsim.ErrRefused
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"timeout", timeout, true},
		{"refused", refused, false},
		{"url-wrapped timeout", &url.Error{Op: "Get", URL: "http://x/", Err: timeout}, true},
		{"url-wrapped refusal", &url.Error{Op: "Get", URL: "http://x/", Err: refused}, false},
		{"unexpected EOF", io.ErrUnexpectedEOF, true},
		{"wrapped unexpected EOF", fmt.Errorf("read body: %w", io.ErrUnexpectedEOF), true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, true},
		{"plain error", fmt.Errorf("parse failure"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// faultedWebIPs returns up to max clean HTTP web IPs for chaos tests.
func faultedWebIPs(cloud *cloudsim.Cloud, max int) []ipaddr.Addr {
	var out []ipaddr.Addr
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if st.Bound && st.Web && st.Ports == cloudsim.HTTPBoth && !st.Slow && !st.HTTPFail && !st.Down {
			out = append(out, a)
		}
		return len(out) < max
	})
	return out
}

func TestRetriesRecoverResets(t *testing.T) {
	cloud, net, _ := testSetup(t)
	ips := faultedWebIPs(cloud, 40)
	if len(ips) < 20 {
		t.Skip("not enough clean web IPs")
	}
	sc := faults.Scenario{Seed: 23, ResetPerMille: 500, ResetAfterBytes: 32}

	run := func(attempts int) (errs int, retries int64) {
		inj, err := faults.Wrap(net, sc, faults.Options{Day: net.Day})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		f, err := New(inj, Config{
			Workers: 1, Timeout: 5 * time.Second,
			Attempts: attempts, RetryBackoff: time.Microsecond,
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ip := range ips {
			page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTP})
			if page.Err != nil {
				errs++
			}
		}
		return errs, reg.Snapshot().Counters["fetcher.retries"]
	}

	errs1, retries1 := run(1)
	errs4, retries4 := run(4)
	if retries1 != 0 {
		t.Errorf("single-attempt fetcher recorded %d retries", retries1)
	}
	if retries4 == 0 {
		t.Error("retrying fetcher recorded zero retries under 50% resets")
	}
	// Half the connections are armed with a reset. A page is lost when
	// the robots conn resets (forcing a fresh dial for the root GET)
	// and that second conn resets too — ~25% single-attempt; retries
	// drive it toward zero.
	if errs1 < len(ips)/8 {
		t.Errorf("single-attempt errors = %d of %d; expected heavy reset loss", errs1, len(ips))
	}
	if errs4 >= errs1 {
		t.Errorf("retries did not reduce errors: %d -> %d", errs1, errs4)
	}
	if float64(errs4) > 0.15*float64(len(ips)) {
		t.Errorf("retried errors = %d of %d, want under 15%%", errs4, len(ips))
	}
}

func TestPerAttemptDeadlineBoundsStalls(t *testing.T) {
	cloud, net, _ := testSetup(t)
	ips := faultedWebIPs(cloud, 1)
	if len(ips) == 0 {
		t.Skip("no clean web IP")
	}
	// Every connection stalls for 5s on its first read; the fetcher's
	// 60ms per-attempt deadline must cut each attempt short so the
	// whole exchange (robots + root, 2 attempts each) stays bounded.
	inj, err := faults.Wrap(net, faults.Scenario{Seed: 7, StallPerMille: 1000, StallMS: 5000}, faults.Options{Day: net.Day})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(inj, Config{
		Workers: 1, Timeout: 60 * time.Millisecond,
		Attempts: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	page := f.FetchIP(context.Background(), scanner.Result{IP: ips[0], OpenPorts: store.PortHTTP})
	elapsed := time.Since(start)
	if page.Err == nil {
		t.Error("fully stalled IP produced a page")
	}
	if !IsTransient(page.Err) {
		t.Errorf("stall error %v not classified transient", page.Err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("stalled exchange took %v; per-attempt deadlines not enforced", elapsed)
	}
}

func TestRobotsDisallowsRootEdgeCases(t *testing.T) {
	ua := DefaultUserAgent
	cases := []struct {
		name, body string
		want       bool
	}{
		{"whitespace-only body", "  \n\t\n", false},
		{"CRLF line endings", "User-agent: *\r\nDisallow: /\r\n", true},
		{"mixed-case user-agent field", "uSeR-aGeNt: *\nDiSaLlOw: /\n", true},
		{"mixed-case agent value", "User-agent: WHOWAS-RESEARCH-SCANNER\nDisallow: /\n", true},
		{"no trailing newline", "User-agent: *\nDisallow: /", true},
		{"disallow before any group", "Disallow: /\n", false},
		{"rule split by blank line stays in group", "User-agent: *\n\nDisallow: /\n", true},
		{"trailing spaces on values", "User-agent: *   \nDisallow: /   \n", true},
	}
	for _, c := range cases {
		if got := RobotsDisallowsRoot(c.body, ua); got != c.want {
			t.Errorf("%s: RobotsDisallowsRoot = %v, want %v", c.name, got, c.want)
		}
	}
}
