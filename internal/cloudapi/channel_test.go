package cloudapi

import (
	"bufio"
	"context"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whowas/internal/metrics"
	"whowas/internal/netsim"
	"whowas/internal/scanner"
)

// startWire starts a daemon over a fresh conformance cloud and dials
// it, both torn down with the test. The returned cloud is the daemon's
// own backing cloud.
func startWire(tb testing.TB, cfg ServerConfig) (*InProcess, *Client, *Server) {
	tb.Helper()
	backing, err := NewInProcess(conformanceConfig())
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(backing, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	client, err := Dial(context.Background(), addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = client.Close() })
	return backing, client, srv
}

// dialClass folds a dial outcome to what a scanner distinguishes.
func dialClass(err error) string {
	var ne net.Error
	switch {
	case err == nil:
		return "open"
	case errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	case errors.As(err, &ne):
		return "refused"
	}
	return "error: " + err.Error()
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireDialEquivalence holds the protocol's invariant: one client
// dial is one daemon-side dial decision with the in-process verdict.
// 64 goroutines share the client's channels for 500 dials each over
// every kind of address — unbound, closed port, open port closed
// unused, open port attached — and every verdict must equal an
// identically configured in-process cloud's, the daemon must have
// made exactly one simulated dial per client dial, and when the dust
// settles nothing is left parked and the only data-plane connections
// ever accepted are the channels and the tunnels that were used.
func TestWireDialEquivalence(t *testing.T) {
	reg := metrics.NewRegistry()
	backing, client, srv := startWire(t, ServerConfig{DataListeners: 2, Metrics: reg})
	truth, err := NewInProcess(conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Transient loss counts attempts per address, so concurrent dialers
	// would see order-dependent verdicts; it has its own test
	// (TestWireProbeSessionScoping).
	backing.Network().LossPerMille = 0
	truth.Network().LossPerMille = 0

	const dialers, each = 64, 500
	total := int64(truth.Ranges().Total())
	ports := []string{":80", ":443", ":22"}
	var attached atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < dialers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n := g*each + i
				ip, err := truth.Ranges().AtIndex(int64(n*7919) % total)
				if err != nil {
					t.Error(err)
					return
				}
				addr := ip.String() + ports[n%len(ports)]
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				want, werr := truth.DialContext(ctx, "tcp", addr)
				got, gerr := client.DialContext(ctx, "tcp", addr)
				cancel()
				if w, g := dialClass(werr), dialClass(gerr); w != g {
					t.Errorf("dial %s: wire %s, in-process %s", addr, g, w)
				}
				if werr == nil {
					_ = want.Close()
				}
				if gerr == nil {
					if n%8 == 0 {
						attached.Add(1)
						if err := got.SetDeadline(time.Time{}); err != nil {
							t.Errorf("attach %s: %v", addr, err)
						}
					}
					_ = got.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("cloudd.dials").Load(); got != dialers*each {
		t.Errorf("cloudd.dials = %d for %d client dials: a dial must be exactly one daemon-side decision", got, dialers*each)
	}
	if attached.Load() == 0 {
		t.Fatal("no dial attached: the sample never hit an open port")
	}
	waitFor(t, "parked connections to drain", func() bool {
		return reg.Gauge("cloudd.parked_conns").Load() == 0 && reg.Gauge("cloudd.active_tunnels").Load() == 0
	})
	if got, want := reg.Counter("cloudd.attaches").Load(), attached.Load(); got != want {
		t.Errorf("cloudd.attaches = %d, want %d", got, want)
	}
	channels := int64(len(srv.DataAddrs()))
	if got, want := reg.Counter("cloudd.data_accepts").Load(), channels+attached.Load(); got != want {
		t.Errorf("cloudd.data_accepts = %d, want %d (%d channels + %d tunnels): a verdict must not cost a connection",
			got, want, channels, attached.Load())
	}
	if got := reg.Gauge("cloudd.probe_channels").Load(); got != channels {
		t.Errorf("cloudd.probe_channels = %d, want %d", got, channels)
	}
	if flushes := reg.Counter("cloudd.verdict_flushes").Load(); flushes <= 0 || flushes > dialers*each+channels {
		t.Errorf("cloudd.verdict_flushes = %d for %d dials", flushes, dialers*each)
	}
}

// TestWireOpenPortWithoutTunnel is the scanner's whole use of an open
// port: dial, OK, Close. It must touch no socket beyond the channel,
// and the Close must release what the daemon parked.
func TestWireOpenPortWithoutTunnel(t *testing.T) {
	reg := metrics.NewRegistry()
	backing, client, _ := startWire(t, ServerConfig{DataListeners: 1, Metrics: reg})
	web, _, _ := findConformanceIPs3(t, backing, 0)
	for i := 0; i < 20; i++ {
		conn, err := dialRetry(context.Background(), client, web.String()+":80")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if got := reg.Gauge("cloudd.parked_conns").Load(); got != 1 {
				t.Errorf("cloudd.parked_conns = %d with one open, unused connection, want 1", got)
			}
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
			t.Errorf("Read after Close = %v, want net.ErrClosed", err)
		}
	}
	waitFor(t, "parked connections to drain", func() bool { return reg.Gauge("cloudd.parked_conns").Load() == 0 })
	if got := reg.Counter("cloudd.data_accepts").Load(); got != 1 {
		t.Errorf("cloudd.data_accepts = %d, want 1: the probe channel and nothing else", got)
	}
	if got := reg.Counter("cloudd.attaches").Load(); got != 0 {
		t.Errorf("cloudd.attaches = %d, want 0", got)
	}
}

// fakeDaemon is a data-plane listener whose side of each probe
// channel the test scripts: serve gets the connection after the
// opening exchange.
func fakeDaemon(t *testing.T, serve func(c net.Conn, dec *frameDecoder)) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				if line, err := readLine(br); err != nil || line != openProbe {
					t.Errorf("fake daemon: opening %q, %v", line, err)
					return
				}
				if _, err := io.WriteString(c, statusOK+" 7\n"); err != nil {
					return
				}
				serve(c, &frameDecoder{br: br})
			}()
		}
	}()
	return &Client{info: Info{DataAddrs: []string{ln.Addr().String()}}}
}

// TestWireAbandonedDial: a caller whose deadline passes before the
// verdict gets the timeout-class net.Error an unanswered probe gets,
// and when the daemon's OK arrives after all, the client releases the
// connection it parked with a DROP — nothing stays parked for a dial
// nobody is waiting on.
func TestWireAbandonedDial(t *testing.T) {
	release := make(chan struct{})
	dropped := make(chan uint32, 1)
	client := fakeDaemon(t, func(c net.Conn, dec *frameDecoder) {
		var f clientFrame
		if err := dec.next(&f); err != nil || f.typ != frameDial || string(f.address) != "54.9.9.9:80" || f.budgetMS < 0 || f.budgetMS > 50 {
			t.Errorf("fake daemon: first frame %+v, %v", f, err)
			return
		}
		id := f.id
		<-release
		if _, err := c.Write(appendVerdict(nil, id, verdictOK, "")); err != nil {
			t.Errorf("fake daemon: late verdict: %v", err)
			return
		}
		if err := dec.next(&f); err != nil || f.typ != frameDrop {
			t.Errorf("fake daemon: after a late OK got %+v, %v; want DROP", f, err)
			return
		}
		dropped <- f.id
		_ = dec.next(&f) // hold the channel open until the client closes it
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	conn, err := client.DialContext(ctx, "tcp", "54.9.9.9:80")
	if err == nil {
		_ = conn.Close()
		t.Fatal("dial succeeded before any verdict")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("abandoned dial error = %v, want timeout net.Error", err)
	}
	close(release)
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatal("the late OK was never dropped")
	}
	client.closeChannels()
}

// TestWireCloseReleasesPendingDials: Client.Close with dials waiting
// on a daemon that never answers returns every one of them with
// ErrTransport — not a verdict — and leaves no goroutine behind.
func TestWireCloseReleasesPendingDials(t *testing.T) {
	before := runtime.NumGoroutine()
	const waiting = 16
	var received atomic.Int64
	client := fakeDaemon(t, func(_ net.Conn, dec *frameDecoder) {
		var f clientFrame
		for dec.next(&f) == nil {
			received.Add(1)
		}
	})
	errs := make(chan error, waiting)
	for i := 0; i < waiting; i++ {
		go func() {
			conn, err := client.DialContext(context.Background(), "tcp", "54.9.9.9:80")
			if err == nil {
				_ = conn.Close()
			}
			errs <- err
		}()
	}
	waitFor(t, "the daemon to receive every dial", func() bool { return received.Load() == waiting })
	client.closeChannels()
	for i := 0; i < waiting; i++ {
		err := <-errs
		var ne net.Error
		if !errors.Is(err, ErrTransport) || errors.As(err, &ne) {
			t.Errorf("pending dial after Close = %v, want ErrTransport and no net.Error", err)
		}
	}
	if _, err := client.DialContext(context.Background(), "tcp", "54.9.9.9:80"); !errors.Is(err, ErrTransport) {
		t.Errorf("dial on a closed client = %v, want ErrTransport", err)
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestWireShutdownMidScan is the dead-data-plane bug: the daemon goes
// away while a scan is running. The scan must fail with ErrTransport —
// the old wire turned every refused connect into "port closed" and
// finished the round with a plausible, empty cloud — every dialer must
// come back, and once the client is closed no goroutine is left.
func TestWireShutdownMidScan(t *testing.T) {
	before := runtime.NumGoroutine()
	backing, client, srv := startWire(t, ServerConfig{DataListeners: 2})
	var dials atomic.Int64
	stopped := make(chan struct{})
	d := dialerFunc(func(ctx context.Context, network, address string) (net.Conn, error) {
		if dials.Add(1) == 500 {
			go func() {
				defer close(stopped)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
			}()
		}
		return client.DialContext(ctx, network, address)
	})
	scn, err := scanner.New(d, scanner.Config{Rate: scanner.UnlimitedRate, Workers: 32})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan scanner.Result, int(backing.Ranges().Total()))
	stats, err := scn.ScanRangesInto(context.Background(), backing.Ranges(), nil, results, 0)
	<-stopped
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("scan over a daemon shut down mid-round = %v (probed %d, responsive %d), want ErrTransport",
			err, stats.Probed, stats.Responsive)
	}
	if total := int64(backing.Ranges().Total()); stats.Probed >= total {
		t.Errorf("probed %d of %d addresses although the daemon died after ~500 dials", stats.Probed, total)
	}
	if err := client.Close(); err != nil {
		t.Error(err)
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before+2 })
}

type dialerFunc func(ctx context.Context, network, address string) (net.Conn, error)

func (f dialerFunc) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return f(ctx, network, address)
}

// TestWireDaemonRestart: a channel that died with its daemon is not
// the client's end state — the next dial after the daemon is back
// opens a fresh channel on the same data address.
func TestWireDaemonRestart(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := probe.Addr().(*net.TCPAddr).Port
	_ = probe.Close()

	start := func() (*InProcess, *Server, string) {
		backing, err := NewInProcess(conformanceConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(backing, ServerConfig{DataListeners: 1, DataBasePort: port})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return backing, srv, addr
	}
	stop := func(srv *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}
	backing, srv, addr := start()
	client, err := Dial(context.Background(), addr)
	if err != nil {
		stop(srv)
		t.Fatal(err)
	}
	defer client.Close()
	web, _, _ := findConformanceIPs3(t, backing, 0)
	dial := func() error {
		conn, err := dialRetry(context.Background(), client, web.String()+":80")
		if err == nil {
			_ = conn.Close()
		}
		return err
	}
	if err := dial(); err != nil {
		stop(srv)
		t.Fatalf("dial before the restart: %v", err)
	}
	stop(srv)
	if err := dial(); !errors.Is(err, ErrTransport) {
		t.Errorf("dial with the daemon down = %v, want ErrTransport", err)
	}
	_, srv, _ = start()
	defer stop(srv)
	if err := dial(); err != nil {
		t.Errorf("dial after the restart: %v", err)
	}
}

// TestPickDataSpread pins which of four listeners each address lands
// on — the choice 64-bit builds made with hash/fnv and int arithmetic —
// so inlining the hash moved no address. Most of the hashes have the
// top bit set: reduced as an int they are negative where int is 32
// bits, and indexed out of range.
func TestPickDataSpread(t *testing.T) {
	c := &Client{info: Info{DataAddrs: []string{"a", "b", "c", "d"}}}
	topBit := 0
	for _, tc := range []struct {
		address string
		want    int
	}{
		{"54.0.0.1:80", 1},   // 0xe025788d
		{"54.0.0.2:80", 2},   // 0xe0be92fa
		{"54.0.3.77:443", 0}, // 0xb647b774
		{"54.1.2.3:22", 0},   // 0x125dfb34
		{"54.2.9.200:80", 1}, // 0x49543e49
		{"54.0.1.15:443", 2}, // 0x305819ee
		{"", 1},              // 0x811c9dc5
	} {
		h := fnv.New32a()
		_, _ = io.WriteString(h, tc.address)
		if h.Sum32()>>31 == 1 {
			topBit++
		}
		if ref := int(uint64(h.Sum32()) % 4); ref != tc.want {
			t.Errorf("table: hash/fnv puts %q on listener %d, listed %d", tc.address, ref, tc.want)
		}
		if got := c.pickData(tc.address); got != tc.want {
			t.Errorf("pickData(%q) = %d, want %d", tc.address, got, tc.want)
		}
	}
	if topBit == 0 {
		t.Error("no address in the table hashes with the top bit set")
	}
}

// heldProxy forwards TCP connections to a data listener, and holds
// what the daemon sends while hold is in force, so a test decides when
// a verdict reaches the client.
type heldProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	gate  chan struct{} // closed while bytes flow
	conns []net.Conn    // both ends of every forwarded connection
}

func startHeldProxy(t *testing.T, target string) *heldProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &heldProxy{ln: ln, gate: make(chan struct{})}
	close(p.gate)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		p.release()
		p.mu.Lock()
		for _, c := range p.conns {
			_ = c.Close()
		}
		p.mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				_ = c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, up)
			p.mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(up, c)
				_ = up.Close()
			}()
			go func() {
				defer wg.Done()
				buf := make([]byte, 4096)
				for {
					n, err := up.Read(buf)
					p.mu.Lock()
					gate := p.gate
					p.mu.Unlock()
					<-gate
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				_ = c.Close()
			}()
		}
	}()
	return p
}

func (p *heldProxy) hold() {
	p.mu.Lock()
	p.gate = make(chan struct{})
	p.mu.Unlock()
}

func (p *heldProxy) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.gate:
	default:
		close(p.gate)
	}
}

// TestWireDeadlineDial drives a probe's netsim.DeadlineContext, which
// the client waits on through a pooled timer and the parent's Done,
// against a real daemon whose verdicts a proxy holds back. A deadline
// that passes first is a prompt ErrTimeout and the late OK is dropped,
// leaving nothing parked; a cancelled parent returns its own error
// without waiting for the deadline; and the reused context and timers
// leave no stale fire behind for the next dial.
func TestWireDeadlineDial(t *testing.T) {
	reg := metrics.NewRegistry()
	backing, client, srv := startWire(t, ServerConfig{DataListeners: 1, Metrics: reg})
	backing.Network().LossPerMille = 0
	proxy := startHeldProxy(t, srv.DataAddrs()[0])
	client.info.DataAddrs = []string{proxy.ln.Addr().String()}
	web, unbound, sshOnly := findConformanceIPs3(t, backing, 0)
	open, closed := web.String()+":80", sshOnly.String()+":80"
	pctx := new(netsim.DeadlineContext)

	// Open the channel, so that what is held below is a verdict.
	pctx.Reset(context.Background(), time.Hour)
	if _, err := client.DialContext(pctx, "tcp", closed); err != netsim.ErrRefused {
		t.Fatalf("dial of a closed port = %v, want netsim.ErrRefused", err)
	}
	pctx.Release()

	t.Run("deadline passes before the verdict", func(t *testing.T) {
		proxy.hold()
		const timeout = 50 * time.Millisecond
		start := time.Now()
		pctx.Reset(context.Background(), timeout)
		conn, err := client.DialContext(pctx, "tcp", open)
		elapsed := time.Since(start)
		pctx.Release()
		if err != netsim.ErrTimeout {
			if conn != nil {
				_ = conn.Close()
			}
			t.Fatalf("dial whose verdict is held = %v, want netsim.ErrTimeout", err)
		}
		if elapsed < timeout || elapsed > 5*time.Second {
			t.Errorf("held dial returned after %v, want its %v deadline and promptly", elapsed, timeout)
		}
		waitFor(t, "the daemon to park the OK", func() bool { return reg.Gauge("cloudd.parked_conns").Load() == 1 })
		proxy.release()
		waitFor(t, "the late OK to be dropped", func() bool { return reg.Gauge("cloudd.parked_conns").Load() == 0 })
	})

	t.Run("cancelled parent", func(t *testing.T) {
		proxy.hold()
		defer proxy.release()
		parent, cancel := context.WithCancel(context.Background())
		pctx.Reset(parent, time.Hour)
		defer pctx.Release()
		time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		_, err := client.DialContext(pctx, "tcp", unbound.String()+":80")
		if err != context.Canceled {
			t.Errorf("dial under a cancelled parent = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancelled dial returned after %v", elapsed)
		}
	})

	// The timers of the dials above are back in the pool: none may end
	// a later dial early.
	for i := 0; i < 20; i++ {
		pctx.Reset(context.Background(), time.Hour)
		if _, err := client.DialContext(pctx, "tcp", closed); err != netsim.ErrRefused {
			t.Fatalf("dial %d after the held ones = %v, want netsim.ErrRefused", i, err)
		}
		pctx.Release()
	}
}

// TestWireProbeAllocations pins what a verdict dial under a probe
// deadline costs across client and daemon at steady state: the
// daemon's copy of the frame's address, and nothing per dial for the
// wait (no context, no timer) or the deadline the daemon rebuilds.
func TestWireProbeAllocations(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool drops values under the race detector")
	}
	backing, client, _ := startWire(t, ServerConfig{DataListeners: 1})
	backing.Network().LossPerMille = 0
	_, unbound, sshOnly := findConformanceIPs3(t, backing, 0)
	pctx := new(netsim.DeadlineContext)
	for _, tc := range []struct {
		address string
		want    error
	}{
		{unbound.String() + ":80", netsim.ErrTimeout},
		{sshOnly.String() + ":80", netsim.ErrRefused},
	} {
		dial := func() {
			pctx.Reset(context.Background(), 2*time.Second)
			if _, err := client.DialContext(pctx, "tcp", tc.address); err != tc.want {
				t.Fatalf("dial %s = %v, want %v", tc.address, err, tc.want)
			}
			pctx.Release()
		}
		for i := 0; i < 100; i++ {
			dial() // open the channel, fill the pools and buffers
		}
		if n := testing.AllocsPerRun(500, dial); n > 1 {
			t.Errorf("a %v dial allocates %v times across client and daemon, want at most 1", tc.want, n)
		}
	}
}

// TestWaitTimerLeavesNoStaleFire: a timer that fired while its dial
// took the verdict instead goes back to the pool drained, so it cannot
// end the next dial that draws it.
func TestWaitTimerLeavesNoStaleFire(t *testing.T) {
	for i := 0; i < 20; i++ {
		fired := startTimer(0)
		time.Sleep(time.Millisecond) // it fires; nobody receives
		stopTimer(fired)
		next := startTimer(time.Hour)
		select {
		case <-next.C:
			t.Fatal("a pooled timer delivered a fire from its last use")
		case <-time.After(time.Millisecond):
		}
		stopTimer(next)
	}
}
