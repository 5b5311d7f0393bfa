package netsim

import (
	"fmt"
	"net"
	"strconv"
	"sync"
)

// DefaultFleetMax bounds a fleet that did not configure its own cap.
const DefaultFleetMax = 16

// fleetHost is where every fleet listener binds: the simulated cloud's
// data plane is a loopback service.
const fleetHost = "127.0.0.1"

// FleetConfig sizes a listener fleet.
type FleetConfig struct {
	// Max is the listener cap; Listen fails once reached (<=0 uses
	// DefaultFleetMax). The bound is what keeps a misconfigured caller
	// from exhausting ephemeral ports or file descriptors.
	Max int
	// BasePort, when positive, makes port assignment deterministic:
	// the i-th listener binds BasePort+i. Zero asks the kernel for
	// ephemeral ports.
	BasePort int
}

// Fleet is a bounded set of real TCP listeners sharing one lifecycle:
// deterministic port assignment, per-connection goroutine tracking,
// and an idempotent Close that waits for every accept loop and
// handler to drain — the data plane whowas-cloudd serves.
type Fleet struct {
	cfg FleetConfig

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewFleet returns an empty fleet.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Max <= 0 {
		cfg.Max = DefaultFleetMax
	}
	return &Fleet{cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Listen binds the fleet's next listener and serves every accepted
// connection on its own tracked goroutine. The handler owns the
// connection for its lifetime; the fleet closes it when the handler
// returns and force-closes it on Close. Returns the bound address.
func (f *Fleet) Listen(handler func(net.Conn)) (string, error) {
	if handler == nil {
		return "", fmt.Errorf("netsim: fleet: nil handler")
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return "", fmt.Errorf("netsim: fleet: closed")
	}
	if len(f.listeners) >= f.cfg.Max {
		f.mu.Unlock()
		return "", fmt.Errorf("netsim: fleet full (%d listeners)", f.cfg.Max)
	}
	port := 0
	if f.cfg.BasePort > 0 {
		port = f.cfg.BasePort + len(f.listeners)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(fleetHost, strconv.Itoa(port)))
	if err != nil {
		f.mu.Unlock()
		return "", fmt.Errorf("netsim: fleet listen: %w", err)
	}
	f.listeners = append(f.listeners, ln)
	f.wg.Add(1)
	f.mu.Unlock()

	go f.acceptLoop(ln, handler)
	return ln.Addr().String(), nil
}

func (f *Fleet) acceptLoop(ln net.Listener, handler func(net.Conn)) {
	defer f.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if !f.track(c) {
			_ = c.Close()
			return
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer f.untrack(c)
			defer c.Close()
			handler(c)
		}()
	}
}

// track registers a live connection; false means the fleet closed
// while the connection was being accepted.
func (f *Fleet) track(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false
	}
	f.conns[c] = struct{}{}
	return true
}

func (f *Fleet) untrack(c net.Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.conns, c)
}

// Addrs returns the bound addresses in listen order.
func (f *Fleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.listeners))
	for i, ln := range f.listeners {
		out[i] = ln.Addr().String()
	}
	return out
}

// NumListeners reports how many listeners are bound.
func (f *Fleet) NumListeners() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.listeners)
}

// Close shuts every listener and live connection down and waits for
// all accept loops and handlers to exit. Safe to call repeatedly and
// concurrently; later calls wait for the same drain.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		for _, ln := range f.listeners {
			_ = ln.Close()
		}
		for c := range f.conns {
			_ = c.Close()
		}
	}
	f.mu.Unlock()
	f.wg.Wait()
	return nil
}
