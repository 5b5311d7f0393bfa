package cloudapi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/dnssim"
	"whowas/internal/httpd"
	"whowas/internal/ipaddr"
	"whowas/internal/netsim"
)

// Client is the wire Cloud: it speaks the probe-channel protocol
// (wire.go) to a whowas-cloudd data plane and JSON over HTTP to its
// control plane. The address layout (Ranges/RegionOf) is
// reconstructed locally from the daemon's advertised configuration, so
// the hot path pays no control-plane round trips; only dials, day
// changes, snapshots, and DNS queries cross the wire.
type Client struct {
	ctl      *httpd.Client // the daemon's control plane
	info     Info
	ranges   *ipaddr.RangeList
	prefixes []cloudsim.PrefixInfo
	day      atomic.Int64

	mu     sync.Mutex
	chans  []*probeChannel // one slot per data address, opened on first use
	closed bool
	wg     sync.WaitGroup // every channel's writer and reader goroutine
}

// Dial connects to a daemon's control plane, fetches the cloud's
// configuration, and rebuilds the address layout locally.
func Dial(ctx context.Context, addr string) (*Client, error) {
	ctl, err := httpd.NewClient(addr, 0)
	if err != nil {
		return nil, fmt.Errorf("cloudapi: %w", err)
	}
	c := &Client{ctl: ctl}
	if err := c.getJSON(ctx, "/cloud/info", &c.info); err != nil {
		return nil, fmt.Errorf("cloudapi: fetching cloud info: %w", err)
	}
	if len(c.info.DataAddrs) == 0 {
		return nil, fmt.Errorf("cloudapi: daemon at %s advertises no data-plane listeners", addr)
	}
	infos, rl, err := cloudsim.Layout(c.info.BaseOctet, c.info.Regions)
	if err != nil {
		return nil, err
	}
	c.prefixes, c.ranges = infos, rl
	var doc dayDoc
	if err := c.getJSON(ctx, "/cloud/day", &doc); err != nil {
		return nil, fmt.Errorf("cloudapi: fetching current day: %w", err)
	}
	c.day.Store(int64(doc.Day))
	return c, nil
}

// DialContext asks the daemon for one dial decision over the probe
// channel to the address's data listener. The remaining context budget
// rides the DIAL frame so deadline-dependent dial semantics (slow
// hosts, injected latency) match in-process behavior; TIMEOUT and
// REFUSED verdicts map back onto the very error values netsim
// produces, keeping scanner classification identical. An open port
// comes back as a connection that opens its tunnel on first use. A
// caller deadline that passes before the verdict is a timeout like any
// other; a cancelled caller gets its context's error at once; a dial
// the wire failed returns ErrTransport.
//
// A probe's netsim.DeadlineContext is waited on through its Expiry, on
// a pooled timer and the parent's Done, so the wait arms no context;
// any other context is waited on through its Done. A cancellation
// answers with the error of the context whose Done closed.
func (c *Client) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("cloudapi: unsupported network %q", network)
	}
	session := netsim.ProbeSession(ctx)
	if len(address) > maxAddress || len(session) > maxSession {
		return nil, fmt.Errorf("cloudapi: dial %.80q: address or probe session too long for the wire", address)
	}
	budget := noBudget
	if dl, ok := ctx.Deadline(); ok {
		budget = max(0, time.Until(dl).Milliseconds())
	}
	if err := ctx.Err(); err != nil {
		return nil, dialCtxErr(err, address)
	}
	ch, err := c.channel(c.pickData(address))
	if err != nil {
		return nil, err
	}
	done := verdictChans.Get().(chan verdict)
	defer verdictChans.Put(done)
	id, err := ch.dial(done, budget, address, session)
	if err != nil {
		return nil, err
	}
	var timer *time.Timer
	var expired <-chan time.Time
	cancel := ctx // the context whose end, other than expired, ends the wait
	if dctx, ok := ctx.(*netsim.DeadlineContext); ok {
		var dl time.Time
		dl, cancel = dctx.Expiry()
		timer = startTimer(time.Until(dl))
		expired = timer.C
	}
	var v verdict
	select {
	case v = <-done:
		stopTimer(timer)
	case <-expired:
		waitTimers.Put(timer)
		ch.giveUp(id, done)
		return nil, netsim.ErrTimeout
	case <-cancel.Done():
		stopTimer(timer)
		ch.giveUp(id, done)
		return nil, dialCtxErr(cancel.Err(), address)
	}
	switch v.status {
	case verdictOK:
		return &lazyConn{ch: ch, id: id, address: address}, nil
	case verdictTimeout:
		return nil, netsim.ErrTimeout
	case verdictRefused:
		return nil, netsim.ErrRefused
	}
	return nil, v.err
}

// dialCtxErr is a dial's answer when its context ends first: a passed
// deadline is the timeout-class net.Error an unanswered probe gets, a
// cancellation is itself.
func dialCtxErr(err error, address string) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return netsim.ErrTimeout
	}
	return err
}

// pickData spreads dials across the daemon's listener fleet,
// deterministically per target address: FNV-1a over the address,
// reduced unsigned so the index is in range on 32-bit ints too.
func (c *Client) pickData(address string) int {
	h := uint32(2166136261)
	for i := 0; i < len(address); i++ {
		h = (h ^ uint32(address[i])) * 16777619
	}
	return int(h % uint32(len(c.info.DataAddrs)))
}

// channel returns the live probe channel to data listener i, opening
// one when there is none or the last one died.
func (c *Client) channel(i int) (*probeChannel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, transportErr("client closed", net.ErrClosed)
	}
	if c.chans == nil {
		c.chans = make([]*probeChannel, len(c.info.DataAddrs))
	}
	ch := c.chans[i]
	if ch == nil || ch.ctx.Err() != nil {
		ch = newProbeChannel(c.info.DataAddrs[i])
		c.chans[i] = ch
		c.wg.Add(1)
		go ch.run(&c.wg)
	}
	return ch, nil
}

// verdict is what a waiting dial is handed: a status, and for
// verdictErr (or a failed channel) the error to return.
type verdict struct {
	status byte
	err    error
}

// verdictChans recycles the one-slot channels dials wait on. A channel
// goes back only after its dial has either received the one verdict
// sent on it or taken itself off the pending table, so it is empty and
// unreferenced.
var verdictChans = sync.Pool{New: func() any { return make(chan verdict, 1) }}

// waitTimers recycles the timers dials wait on their deadline with. A
// timer goes back stopped with its channel empty: received from, or
// drained by stopTimer.
var waitTimers sync.Pool

// startTimer returns a timer firing after d, pooled when one is free.
func startTimer(d time.Duration) *time.Timer {
	if t, ok := waitTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// stopTimer pools a timer whose channel was not received from. The
// drain blocks: go.mod's go 1.22 gives this module pre-1.23 timer
// channels, where a fire that Stop comes too late for may still be on
// its way, and a non-blocking drain would leave it to time out a later
// dial. (Under 1.23 channels Stop reports an unreceived fire as
// stopped, and nothing is drained.)
func stopTimer(t *time.Timer) {
	if t == nil {
		return
	}
	if !t.Stop() {
		<-t.C
	}
	waitTimers.Put(t)
}

// dataDialer opens probe channels and tunnels. Keep-alive probes are
// off: a channel is never idle for long and a tunnel lives for one
// page, so the socket options only cost syscalls per connect.
var dataDialer = net.Dialer{Timeout: handshakeTimeout, KeepAlive: -1}

// probeChannel is the client's end of one persistent connection to a
// data listener. Dials append frames to out and wait; the writer
// goroutine (run) flushes whatever has accumulated in one write, so
// concurrent dialers share a write(2); the reader goroutine hands each
// verdict to the dial that waits for it.
type probeChannel struct {
	addr   string
	ctx    context.Context // ends when the channel dies; Client.channel then replaces it
	cancel context.CancelFunc
	wake   chan struct{} // one slot: out is non-empty
	remote uint64        // the daemon's name for this channel; set by the reader before any verdict

	mu      sync.Mutex
	out     []byte // the opening line, then frames the writer has not sent yet
	pending map[uint32]chan verdict
	nextID  uint32
	conn    net.Conn
	err     error // set once, by fail
}

func newProbeChannel(addr string) *probeChannel {
	ctx, cancel := context.WithCancel(context.Background())
	ch := &probeChannel{
		addr:    addr,
		ctx:     ctx,
		cancel:  cancel,
		wake:    make(chan struct{}, 1),
		out:     []byte(openProbe + "\n"),
		pending: make(map[uint32]chan verdict),
	}
	ch.wake <- struct{}{}
	return ch
}

// run connects, starts the reader, and is then the writer: it sends
// everything queued since its last write each time it is woken. The
// connect happens here rather than in the first dial so that no dial
// waits on the wire any longer than its own context allows.
func (ch *probeChannel) run(wg *sync.WaitGroup) {
	defer wg.Done()
	conn, err := dataDialer.DialContext(ch.ctx, "tcp", ch.addr)
	if err != nil {
		ch.fail(err)
		return
	}
	ch.mu.Lock()
	if ch.err != nil {
		ch.mu.Unlock()
		_ = conn.Close()
		return
	}
	ch.conn = conn
	ch.mu.Unlock()
	wg.Add(1)
	go ch.read(wg, conn)

	var spare []byte
	for {
		select {
		case <-ch.wake:
		case <-ch.ctx.Done():
			return
		}
		ch.mu.Lock()
		buf := ch.out
		ch.out = spare[:0]
		ch.mu.Unlock()
		if len(buf) > 0 {
			if _, err := conn.Write(buf); err != nil {
				ch.fail(err)
				return
			}
		}
		spare = buf
	}
}

// read takes the daemon's answer to the opening line, then verdicts
// until the connection ends.
func (ch *probeChannel) read(wg *sync.WaitGroup, conn net.Conn) {
	defer wg.Done()
	br := bufio.NewReader(conn)
	line, err := readLine(br)
	if err != nil {
		ch.fail(err)
		return
	}
	name, ok := strings.CutPrefix(line, statusOK+" ")
	if ch.remote, err = strconv.ParseUint(name, 10, 64); !ok || err != nil {
		ch.fail(fmt.Errorf("daemon refused the channel: %.80q", line))
		return
	}
	for {
		id, status, reason, err := readVerdict(br)
		if err != nil {
			ch.fail(err)
			return
		}
		v := verdict{status: status}
		if status == verdictErr {
			v.err = transportErr("remote dial", errors.New(reason))
		}
		ch.mu.Lock()
		done, waiting := ch.pending[id]
		delete(ch.pending, id)
		ch.mu.Unlock()
		switch {
		case waiting:
			done <- v
		case status == verdictOK:
			ch.drop(id) // the dial was abandoned; release what it parked
		}
	}
}

// dial queues a DIAL frame and registers done for its verdict.
func (ch *probeChannel) dial(done chan verdict, budgetMS int64, address, session string) (uint32, error) {
	ch.mu.Lock()
	if ch.err != nil {
		ch.mu.Unlock()
		return 0, ch.err
	}
	ch.nextID++
	id := ch.nextID
	ch.pending[id] = done
	ch.out = appendDial(ch.out, id, budgetMS, address, session)
	ch.mu.Unlock()
	ch.wakeWriter()
	return id, nil
}

// giveUp takes a dial its caller stopped waiting for off the pending
// table. If the reader already took it off, its verdict is on its way
// to done, and an OK in it has parked a connection nobody will use.
func (ch *probeChannel) giveUp(id uint32, done chan verdict) {
	ch.mu.Lock()
	_, waiting := ch.pending[id]
	delete(ch.pending, id)
	ch.mu.Unlock()
	if !waiting {
		if v := <-done; v.status == verdictOK {
			ch.drop(id)
		}
	}
}

// drop queues a DROP frame for a parked connection that will not be
// used. On a dead channel there is nothing to say: the daemon closed
// what it parked when the connection ended.
func (ch *probeChannel) drop(id uint32) {
	ch.mu.Lock()
	if ch.err == nil {
		ch.out = appendDrop(ch.out, id)
	}
	ch.mu.Unlock()
	ch.wakeWriter()
}

func (ch *probeChannel) wakeWriter() {
	select {
	case ch.wake <- struct{}{}:
	default:
	}
}

// fail kills the channel: every dial waiting on it returns
// ErrTransport, and so does any dial that still reaches it before
// Client.channel replaces it.
func (ch *probeChannel) fail(cause error) {
	ch.mu.Lock()
	if ch.err != nil {
		ch.mu.Unlock()
		return
	}
	ch.err = transportErr("probe channel to "+ch.addr, cause)
	pending, conn := ch.pending, ch.conn
	ch.pending = nil
	ch.mu.Unlock()
	ch.cancel()
	if conn != nil {
		_ = conn.Close()
	}
	for _, done := range pending {
		done <- verdict{status: verdictErr, err: ch.err}
	}
}

// transportErr wraps a wire failure as ErrTransport. The cause is
// flattened to text: it is often a net.Error, and ErrTransport must
// not unwrap to one.
func transportErr(what string, cause error) error {
	return fmt.Errorf("%w: %s: %v", ErrTransport, what, cause)
}

// lazyConn is an open port's connection before anyone has used it.
// The daemon holds the simulated connection parked under (channel,
// id); the first Read, Write or deadline call opens the TCP tunnel
// that reaches it, and a Close that comes first just drops it.
type lazyConn struct {
	ch      *probeChannel
	id      uint32
	address string

	once sync.Once // attach or drop, whichever is asked for first
	conn net.Conn  // the tunnel, once attached
	err  error     // why there is no tunnel: closed, or the attach failed
}

// tunnel returns the attached connection, attaching on first call.
func (l *lazyConn) tunnel() (net.Conn, error) {
	l.once.Do(l.attach)
	return l.conn, l.err
}

func (l *lazyConn) attach() {
	conn, err := dataDialer.Dial("tcp", l.ch.addr)
	if err != nil {
		l.err = transportErr("attach "+l.address, err)
		l.ch.drop(l.id)
		return
	}
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err = io.WriteString(conn, formatAttach(l.ch.remote, l.id)); err == nil {
		// The answer is read to its last byte and no further: what
		// follows "OK\n" is already the simulated host talking.
		var status [len(statusOK) + 1]byte
		if _, err = io.ReadFull(conn, status[:]); err == nil && string(status[:]) != statusOK+"\n" {
			rest, _ := readLine(bufio.NewReader(conn))
			err = errors.New(string(status[:]) + rest)
		}
	}
	if err != nil {
		_ = conn.Close()
		l.err = transportErr("attach "+l.address, err)
		return
	}
	_ = conn.SetDeadline(time.Time{})
	l.conn = conn
}

func (l *lazyConn) drop() {
	l.err = net.ErrClosed
	l.ch.drop(l.id)
}

func (l *lazyConn) Read(p []byte) (int, error) {
	conn, err := l.tunnel()
	if err != nil {
		return 0, err
	}
	return conn.Read(p)
}

func (l *lazyConn) Write(p []byte) (int, error) {
	conn, err := l.tunnel()
	if err != nil {
		return 0, err
	}
	return conn.Write(p)
}

// Close drops the parked connection when nothing attached it, and
// closes the tunnel when something did.
func (l *lazyConn) Close() error {
	l.once.Do(l.drop)
	if l.conn != nil {
		return l.conn.Close()
	}
	return nil
}

func (l *lazyConn) SetDeadline(t time.Time) error {
	conn, err := l.tunnel()
	if err != nil {
		return err
	}
	return conn.SetDeadline(t)
}

func (l *lazyConn) SetReadDeadline(t time.Time) error {
	conn, err := l.tunnel()
	if err != nil {
		return err
	}
	return conn.SetReadDeadline(t)
}

func (l *lazyConn) SetWriteDeadline(t time.Time) error {
	conn, err := l.tunnel()
	if err != nil {
		return err
	}
	return conn.SetWriteDeadline(t)
}

// LocalAddr and RemoteAddr name the two ends as the caller dialed
// them: the tunnel's own socket addresses are the wire's business.
func (l *lazyConn) LocalAddr() net.Addr  { return wireAddr("cloudapi") }
func (l *lazyConn) RemoteAddr() net.Addr { return wireAddr(l.address) }

type wireAddr string

func (wireAddr) Network() string  { return "tcp" }
func (a wireAddr) String() string { return string(a) }

// lookup finds the /22 covering a, or nil outside the cloud.
func (c *Client) lookup(a ipaddr.Addr) *cloudsim.PrefixInfo {
	if len(c.prefixes) == 0 {
		return nil
	}
	base := c.prefixes[0].Prefix.Addr
	if a < base {
		return nil
	}
	idx := int((a - base) >> 10)
	if idx >= len(c.prefixes) {
		return nil
	}
	return &c.prefixes[idx]
}

// Ranges returns the probed address space.
func (c *Client) Ranges() *ipaddr.RangeList { return c.ranges }

// RegionOf maps an address to its region ("" outside the cloud).
func (c *Client) RegionOf(a ipaddr.Addr) string {
	if pi := c.lookup(a); pi != nil {
		return pi.Region
	}
	return ""
}

// Info describes the remote cloud, including its data-plane addresses.
func (c *Client) Info() Info { return c.info }

// Days returns the campaign length in simulated days.
func (c *Client) Days() int { return c.info.Days }

// Day returns the locally cached current day (updated by SetDay).
func (c *Client) Day() int { return int(c.day.Load()) }

// SetDay advances the daemon's simulated day and the local cache.
func (c *Client) SetDay(ctx context.Context, day int) error {
	doc := dayDoc{Day: day}
	if _, err := c.ctl.PostJSON(ctx, "/cloud/day", doc, &doc); err != nil {
		return fmt.Errorf("cloudapi: %w", err)
	}
	c.day.Store(int64(doc.Day))
	return nil
}

// Snapshot fetches one day's ground-truth census.
func (c *Client) Snapshot(ctx context.Context, day int) (Snapshot, error) {
	var snap Snapshot
	err := c.getJSON(ctx, "/truth/snapshot?day="+strconv.Itoa(day), &snap)
	return snap, err
}

// Resolver returns a wire resolver pinned at day.
func (c *Client) Resolver(day int) Resolver { return &wireResolver{c: c, day: day} }

// Health checks the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	var doc struct {
		Status string `json:"status"`
	}
	if err := c.getJSON(ctx, "/healthz", &doc); err != nil {
		return err
	}
	if doc.Status != "ok" {
		return fmt.Errorf("cloudapi: daemon unhealthy: %q", doc.Status)
	}
	return nil
}

// Close ends every probe channel — dials waiting on one return
// ErrTransport — waits for their goroutines, and releases pooled
// control-plane connections. Tunnels already attached belong to their
// callers. Idempotent.
func (c *Client) Close() error {
	c.closeChannels()
	c.ctl.Close()
	return nil
}

// closeChannels is the data plane's half of Close.
func (c *Client) closeChannels() {
	c.mu.Lock()
	c.closed = true
	chans := c.chans
	c.chans = nil
	c.mu.Unlock()
	for _, ch := range chans {
		if ch != nil {
			ch.fail(net.ErrClosed)
		}
	}
	c.wg.Wait()
}

// wireResolver answers cartography lookups over the control plane.
type wireResolver struct {
	c   *Client
	day int
}

// LookupPublicName resolves an EC2-style name through the daemon.
func (r *wireResolver) LookupPublicName(ctx context.Context, name string) (dnssim.Response, error) {
	var resp dnssim.Response
	path := "/dns/public?day=" + strconv.Itoa(r.day) + "&name=" + url.QueryEscape(name)
	err := r.c.getJSON(ctx, path, &resp)
	return resp, err
}

// getJSON fetches a control-plane document; a non-200 answer
// surfaces as "cloudapi: GET <path>: <status>: <the daemon's reason>".
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	if _, err := c.ctl.GetJSON(ctx, path, out); err != nil {
		return fmt.Errorf("cloudapi: %w", err)
	}
	return nil
}
