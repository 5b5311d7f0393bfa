package fetcher

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/netsim"
	"whowas/internal/scanner"
	"whowas/internal/store"
)

// openCounter is a Dialer that tracks how many of the connections it
// handed out are still open.
type openCounter struct {
	inner netsim.Dialer

	mu               sync.Mutex
	open, peak, seen int
}

func (d *openCounter) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	c, err := d.inner.DialContext(ctx, network, address)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen++
	if d.open++; d.open > d.peak {
		d.peak = d.open
	}
	return &countedConn{Conn: c, d: d}, nil
}

func (d *openCounter) counts() (open, peak, seen int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.open, d.peak, d.seen
}

type countedConn struct {
	net.Conn
	d    *openCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.d.mu.Lock()
		c.d.open--
		c.d.mu.Unlock()
	})
	return c.Conn.Close()
}

// TestConnectionScopeIsTheExchange: a connection lives for one IP's
// exchange — robots.txt and the page share it, and the page GET closes
// it — so a round holds O(workers) connections and goroutines, not one
// parked keep-alive connection per IP fetched until CloseIdle.
func TestConnectionScopeIsTheExchange(t *testing.T) {
	cloud, network, _ := testSetup(t)
	network.LossPerMille = 0 // a lost dial is an error exit, not this test's subject
	const workers, want = 8, 300
	var targets []scanner.Result
	cloud.Ranges().Each(func(a ipaddr.Addr) bool {
		st := cloud.StateAt(0, a)
		if !st.Bound || !st.Web || st.Slow || st.HTTPFail || st.Down {
			return true
		}
		// Robots-denied and failed exchanges end before the page GET;
		// their connection idles until CloseIdle, as before.
		if prof, _, ok := cloud.PageOn(0, a); !ok || prof.RobotsDeny {
			return true
		}
		res := scanner.Result{IP: a}
		if st.Ports.OpensPort(80) {
			res.OpenPorts |= store.PortHTTP
		}
		if st.Ports.OpensPort(443) {
			res.OpenPorts |= store.PortHTTPS
		}
		targets = append(targets, res)
		return len(targets) < want
	})
	if len(targets) < want {
		t.Fatalf("only %d fetchable web IPs in the sample cloud", len(targets))
	}

	baseline := runtime.NumGoroutine()
	dialer := &openCounter{inner: network}
	f, err := New(dialer, Config{Workers: workers, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range exchangePool(f, workers, targets) {
		if page.Err != nil || page.Status == 0 {
			t.Errorf("%s: status %d, err %v", page.IP, page.Status, page.Err)
		}
	}

	// No CloseIdle. The transport closes a finished connection on its
	// read loop, a step after the worker sees the body's EOF, so give
	// the last few a moment — and allow the same lag in the peak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		open, _, _ := dialer.counts()
		if (open == 0 && runtime.NumGoroutine() <= baseline) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	open, peak, seen := dialer.counts()
	if seen != len(targets) {
		t.Errorf("%d connections for %d exchanges, want one each (robots.txt and the page share it)", seen, len(targets))
	}
	if open != 0 {
		t.Errorf("%d connections still open after the pool returned, want 0 without CloseIdle", open)
	}
	if peak > 2*workers {
		t.Errorf("peak open connections = %d with %d workers", peak, workers)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines after the pool, %d before: connections are still parked", got, baseline)
	}
}
