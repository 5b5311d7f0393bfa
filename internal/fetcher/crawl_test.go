package fetcher

import (
	"context"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
	"whowas/internal/netsim"
	"whowas/internal/scanner"
	"whowas/internal/store"
)

func TestSameSitePaths(t *testing.T) {
	body := `<a href="http://shop.example/about">About</a>
<a href="http://shop.example/contact">Contact</a>
<a href="http://shop.example/">Home</a>
<a href="http://shop.example/about">About again</a>
<script src="http://www.google-analytics.com/ga.js"></script>
<a href="http://platform.twitter.com/widgets.js">tw</a>`
	got := SameSitePaths(body, 10)
	want := []string{"/about", "/contact"}
	if len(got) != len(want) {
		t.Fatalf("SameSitePaths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("path[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Cap respected.
	if capped := SameSitePaths(body, 1); len(capped) != 1 {
		t.Errorf("capped = %v", capped)
	}
	if empty := SameSitePaths("", 5); empty != nil {
		t.Errorf("empty body paths = %v", empty)
	}
}

func TestFollowLinksFetchesSubpages(t *testing.T) {
	cloud, err := cloudsim.New(cloudsim.DefaultEC2Config(1024, 52))
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(cloud)
	if err != nil {
		t.Fatal(err)
	}
	dialer := &openCounter{inner: net}
	f, err := New(dialer, Config{Workers: 2, Timeout: 5 * time.Second, FollowLinks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Find a healthy 200 HTML page with subpages.
	var ip ipaddr.Addr
	found := false
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if !(st.Bound && st.Web && !st.Slow && !st.HTTPFail && !st.Down && st.Ports == cloudsim.HTTPBoth) {
			return true
		}
		prof, _, ok := cloud.PageOn(0, a)
		if ok && !prof.RobotsDeny && len(prof.SubpagePaths()) > 0 {
			ip, found = a, true
			return false
		}
		return true
	})
	if !found {
		t.Skip("no crawlable page in sample")
	}
	page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTP})
	if page.Err != nil || page.Status != 200 {
		t.Fatalf("fetch: status=%d err=%v", page.Status, page.Err)
	}
	if len(page.SubPages) == 0 {
		t.Fatal("no subpages followed")
	}
	okCount := 0
	for _, sub := range page.SubPages {
		if sub.Status == 200 && len(sub.Body) > 0 {
			okCount++
		}
	}
	if okCount == 0 {
		t.Errorf("no subpage returned content: %+v", page.SubPages)
	}
	// The whole crawl rides one connection, and the last followed link
	// closes it (on the transport's read loop, hence the wait).
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if open, _, _ := dialer.counts(); open == 0 {
			break
		}
	}
	if open, _, seen := dialer.counts(); open != 0 || seen != 1 {
		t.Errorf("crawl used %d connections and left %d open, want 1 and 0", seen, open)
	}
}

func TestFollowLinksOffByDefault(t *testing.T) {
	cloud, err := cloudsim.New(cloudsim.DefaultEC2Config(1024, 53))
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(cloud)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(net, Config{Workers: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
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
		t.Skip("no web IP")
	}
	page := f.FetchIP(context.Background(), scanner.Result{IP: ip, OpenPorts: store.PortHTTP})
	if len(page.SubPages) != 0 {
		t.Errorf("paper-default fetch followed %d links", len(page.SubPages))
	}
}
