package cloudapi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/dnssim"
	"whowas/internal/httpd"
	"whowas/internal/ipaddr"
	"whowas/internal/netsim"
)

// Client is the wire Cloud: it speaks the preamble protocol to a
// whowas-cloudd data plane and JSON over HTTP to its control plane.
// The address layout (Ranges/RegionOf/IsVPC) is reconstructed locally
// from the daemon's advertised configuration, so the hot path pays no
// control-plane round trips; only dials, day changes, snapshots, and
// DNS queries cross the wire.
type Client struct {
	ctl       *httpd.Client // the daemon's control plane
	info      Info
	ranges    *ipaddr.RangeList
	prefixes  []cloudsim.PrefixInfo
	day       atomic.Int64
	netDialer net.Dialer
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

// DialContext tunnels one dial through the daemon's data plane. The
// remaining context budget rides the preamble so deadline-dependent
// dial semantics (slow hosts, injected latency) match in-process
// behavior; TIMEOUT and REFUSED statuses map back onto the very error
// values netsim produces, keeping scanner classification identical.
func (c *Client) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("cloudapi: unsupported network %q", network)
	}
	raw, err := c.netDialer.DialContext(ctx, "tcp", c.pickData(address))
	if err != nil {
		return nil, fmt.Errorf("cloudapi: data plane: %w", err)
	}
	budget := noBudget
	dl, hasDL := ctx.Deadline()
	if hasDL {
		ms := time.Until(dl).Milliseconds()
		if ms < 0 {
			ms = 0
		}
		budget = ms
		_ = raw.SetDeadline(dl)
	}
	if _, err := io.WriteString(raw, formatPreamble(address, budget, netsim.ProbeSession(ctx))); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("cloudapi: sending preamble: %w", err)
	}
	br := bufio.NewReader(raw)
	line, err := br.ReadString('\n')
	if err != nil {
		_ = raw.Close()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			return nil, netsim.NewTimeoutError(address)
		}
		return nil, fmt.Errorf("cloudapi: reading dial status: %w", err)
	}
	status := strings.TrimSpace(line)
	switch {
	case status == statusOK:
		if hasDL {
			_ = raw.SetDeadline(time.Time{})
		}
		return &wireConn{Conn: raw, br: br}, nil
	case status == statusTimeout:
		_ = raw.Close()
		return nil, netsim.NewTimeoutError(address)
	case status == statusRefused:
		_ = raw.Close()
		return nil, netsim.NewRefusedError(address)
	default:
		_ = raw.Close()
		return nil, fmt.Errorf("cloudapi: remote dial %s: %s", address, status)
	}
}

// wireConn is the tunneled connection; reads drain the status
// reader's buffer before touching the socket.
type wireConn struct {
	net.Conn
	br *bufio.Reader
}

func (w *wireConn) Read(p []byte) (int, error) { return w.br.Read(p) }

// pickData spreads dials across the daemon's listener fleet,
// deterministically per target address.
func (c *Client) pickData(address string) string {
	h := fnv.New32a()
	_, _ = io.WriteString(h, address)
	return c.info.DataAddrs[int(h.Sum32())%len(c.info.DataAddrs)]
}

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

// IsVPC reports VPC membership from the advertised layout.
func (c *Client) IsVPC(a ipaddr.Addr) bool {
	pi := c.lookup(a)
	return pi != nil && pi.VPC
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

// Close releases pooled control-plane connections. Idempotent.
func (c *Client) Close() error {
	c.ctl.Close()
	return nil
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
