// Package netsim is the virtual network between the WhoWas scanner/
// fetcher and the simulated clouds. It implements the same dial
// semantics the real Internet gave the paper's probes:
//
//   - unbound IPs drop SYNs (the dial times out),
//   - bound instances answer on their open ports and refuse others,
//   - a small population of hosts is persistently slow, answering only
//     probes willing to wait (the §4 2s-vs-8s timeout experiment),
//   - a small per-probe transient loss makes a first probe fail where
//     a retry would succeed (the §4 retry experiment),
//   - open web ports serve real HTTP — and real TLS on 443 — over
//     in-memory connections, with content from the cloud simulator.
//
// The scanner and fetcher consume the network through the Dialer
// interface, exactly as they would plug a custom DialContext into
// net.Dialer / http.Transport; swapping in a real dialer (the
// cloudapi wire client, over whowas-cloudd's listener Fleet) changes
// nothing else.
package netsim

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
)

// Dialer is the scanner/fetcher-facing dial interface, matching the
// signature of net.Dialer.DialContext and http.Transport.DialContext.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// verdictError is the network's answer to a dial, a net.Error telling
// a dropped SYN (a timeout) from an RST (a refusal). It names no
// address, which the caller holds, so a verdict allocates nothing.
type verdictError struct {
	msg     string
	timeout bool
}

func (e *verdictError) Error() string   { return e.msg }
func (e *verdictError) Timeout() bool   { return e.timeout }
func (e *verdictError) Temporary() bool { return e.timeout }

// ErrTimeout and ErrRefused are the verdicts for a dropped SYN and for
// a closed port on a bound instance. Fault layers and the cloudapi
// wire client return them too, so their failures classify as organic.
var (
	ErrTimeout net.Error = &verdictError{"dial tcp: i/o timeout", true}
	ErrRefused net.Error = &verdictError{"dial tcp: connection refused", false}
)

// slowThreshold is the patience a dialer needs for a slow host to
// answer (the paper compared 2s vs 8s timeouts).
const slowThreshold = 5 * time.Second

// Network serves the simulated cloud's IP space. Safe for concurrent
// use; the measurement day is advanced between rounds with SetDay.
type Network struct {
	cloud *cloudsim.Cloud
	day   atomic.Int64

	// LossPerMille is the per-probe transient failure rate (default 3,
	// i.e. 0.3%); a retry of a lost probe succeeds.
	LossPerMille int

	mu       sync.Mutex
	attempts map[attemptKey]int

	// recordProbes is read before mu on every dial and request, so a
	// network with accounting off shares no lock between connections.
	recordProbes  atomic.Bool
	probeCounts   map[int]map[ipaddr.Addr]int // day -> ip -> probes
	requestCounts map[int]map[ipaddr.Addr]int // day -> ip -> HTTP requests

	tlsConf *tls.Config
}

type attemptKey struct {
	session string
	ip      ipaddr.Addr
	day     int
}

// probeSessionKey carries a WithProbeSession identity through dial
// contexts.
type probeSessionKey struct{}

// WithProbeSession scopes the network's per-(ip, day) transient-loss
// bookkeeping to the given session identity. Dials in different
// sessions count attempts independently, so re-measuring a range in a
// fresh session behaves exactly like a first measurement — which is
// what lets a distributed campaign re-run a dead worker's
// half-probed shard and still reproduce the single-process store
// digest. An unstamped context is the "" session; a campaign that
// never re-measures needs no stamping.
func WithProbeSession(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, probeSessionKey{}, id)
}

// ProbeSession returns the identity stamped by WithProbeSession, or
// "" when the context carries none.
func ProbeSession(ctx context.Context) string {
	s, _ := ctx.Value(probeSessionKey{}).(string)
	return s
}

// New builds a network over the given cloud.
func New(cloud *cloudsim.Cloud) (*Network, error) {
	tlsConf, err := selfSignedTLS()
	if err != nil {
		return nil, fmt.Errorf("netsim: generating TLS certificate: %w", err)
	}
	return &Network{
		cloud:        cloud,
		LossPerMille: 3,
		attempts:     make(map[attemptKey]int),
		tlsConf:      tlsConf,
	}, nil
}

// SetDay advances the simulated day. Bookkeeping for the previous day
// (retry attempts) is dropped.
func (n *Network) SetDay(d int) {
	n.day.Store(int64(d))
	n.mu.Lock()
	n.attempts = make(map[attemptKey]int)
	n.mu.Unlock()
}

// Day returns the current simulated day.
func (n *Network) Day() int { return int(n.day.Load()) }

// RecordProbes enables per-IP probe and HTTP-request counting
// (politeness tests).
func (n *Network) RecordProbes(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.recordProbes.Store(on)
	if on && n.probeCounts == nil {
		n.probeCounts = make(map[int]map[ipaddr.Addr]int)
		n.requestCounts = make(map[int]map[ipaddr.Addr]int)
	}
}

// ProbeCount reports how many dials an IP received on a day (only
// meaningful when RecordProbes was enabled).
func (n *Network) ProbeCount(day int, ip ipaddr.Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.probeCounts[day][ip]
}

// RequestCount reports how many HTTP requests an IP served on a day
// (only meaningful when RecordProbes was enabled).
func (n *Network) RequestCount(day int, ip ipaddr.Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.requestCounts[day][ip]
}

// countRequest records one HTTP request when accounting is on.
func (n *Network) countRequest(day int, ip ipaddr.Addr) {
	if !n.recordProbes.Load() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.requestCounts[day] == nil {
		n.requestCounts[day] = make(map[ipaddr.Addr]int)
	}
	n.requestCounts[day][ip]++
}

// DialContext implements Dialer against the simulated cloud.
func (n *Network) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad port %q", portStr)
	}
	ip, err := ipaddr.ParseAddr(host)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	day := n.Day()

	if n.recordProbes.Load() {
		n.mu.Lock()
		if n.probeCounts[day] == nil {
			n.probeCounts[day] = make(map[ipaddr.Addr]int)
		}
		n.probeCounts[day][ip]++
		n.mu.Unlock()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := n.cloud.StateAt(day, ip)
	if !st.Bound {
		return nil, ErrTimeout
	}
	if !st.Ports.OpensPort(port) {
		return nil, ErrRefused
	}
	// Slow hosts answer only patient dialers: if the caller's deadline
	// arrives before slowThreshold, the SYN goes unanswered.
	if st.Slow {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < slowThreshold {
			return nil, ErrTimeout
		}
	}
	// Transient loss: hash-selected probes fail on their first attempt
	// and succeed on retry, counted per probe session.
	if n.lossDrop(ProbeSession(ctx), ip, port, day) {
		return nil, ErrTimeout
	}

	p := newConnPair()
	if port == 22 { // answer with an SSH banner, then close on input
		go serveSSHBanner(&p.s)
	} else {
		p.n, p.ip, p.useTLS = n, ip, port == 443
	}
	return &p.c, nil
}

// lossDrop decides whether this attempt is transiently lost. Loss is
// correlated per host, as real congestion is: a "lossy" (ip, day)
// drops its first three connection attempts — a full 80/443/22 scan
// sequence — and answers retries after that. This is what the §4
// retry experiment measures: probing the same IP again minutes later
// recovers a small fraction of non-responders.
func (n *Network) lossDrop(session string, ip ipaddr.Addr, port, day int) bool {
	if n.LossPerMille <= 0 {
		return false
	}
	h := uint64(ip)*0x9e3779b97f4a7c15 ^ uint64(day)<<20
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	if h%1000 >= uint64(n.LossPerMille) {
		return false
	}
	k := attemptKey{session: session, ip: ip, day: day}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attempts[k]++
	return n.attempts[k] <= 3
}

// serveSSHBanner emulates an OpenSSH identification string; the
// scanner only needs the connection to succeed.
func serveSSHBanner(c net.Conn) {
	defer c.Close()
	_, _ = io.WriteString(c, "SSH-2.0-OpenSSH_5.9p1 Debian-5ubuntu1.1\r\n")
	// Wait for the peer to close (read until error), bounded.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// selfSignedTLS builds a TLS config with a fresh ECDSA P-256
// self-signed certificate (fast handshakes; the fetcher, like the
// paper's, does not validate cloud certificates).
func selfSignedTLS() (*tls.Config, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "whowas-netsim"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * 365 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IsCA:         true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
	return &tls.Config{Certificates: []tls.Certificate{cert}}, nil
}
