package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"whowas/internal/ipaddr"
)

// stream is one direction of an in-memory connection: the writing end
// appends and returns, the reading end drains. Unlike the standard
// library's synchronous pipe there is no rendezvous — a response
// handed over in one Write is read in one Read, and crosses
// whowas-cloudd's tunnel as one write(2).
type stream struct {
	mu   sync.Mutex
	cond sync.Cond // on mu: data arrived, an end closed, or the deadline passed
	buf  []byte    // written and not yet read: buf[off:]
	off  int

	wclosed bool // writing end closed: reads drain buf, then io.EOF
	rclosed bool // reading end closed: reads and writes fail

	// timer is the pending read deadline. A replaced timer that still
	// fires finds timer is no longer itself and does nothing.
	timer   *time.Timer
	expired bool // the read deadline has passed
}

func (s *stream) read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.rclosed:
			return 0, io.ErrClosedPipe
		case s.expired:
			return 0, os.ErrDeadlineExceeded
		case s.off < len(s.buf):
			n := copy(p, s.buf[s.off:])
			if s.off += n; s.off == len(s.buf) {
				s.buf, s.off = s.buf[:0], 0
			}
			return n, nil
		case s.wclosed:
			return 0, io.EOF
		case len(p) == 0:
			return 0, nil
		}
		s.cond.Wait()
	}
}

func (s *stream) write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wclosed || s.rclosed {
		return 0, io.ErrClosedPipe
	}
	s.buf = append(s.buf, p...)
	s.cond.Signal()
	return len(p), nil
}

// closeWrite closes the writing end: the reader drains, then io.EOF.
func (s *stream) closeWrite() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wclosed = true
	s.cond.Broadcast()
}

// closeRead closes the reading end, dropping what was not read.
func (s *stream) closeRead() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rclosed = true
	s.buf, s.off = nil, 0
	s.stopTimer()
	s.cond.Broadcast()
}

// stopTimer cancels a pending deadline; the caller holds mu.
func (s *stream) stopTimer() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

func (s *stream) setReadDeadline(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopTimer()
	s.expired = false
	if t.IsZero() || s.rclosed {
		return
	}
	d := time.Until(t)
	if d <= 0 {
		s.expired = true
		s.cond.Broadcast()
		return
	}
	var timer *time.Timer
	timer = time.AfterFunc(d, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.timer == timer {
			s.expired = true
			s.cond.Broadcast()
		}
	})
	s.timer = timer
}

// conn is one end of a buffered in-memory connection.
type conn struct {
	rd, wr *stream
	pair   *connPair // set on the client end
}

// connPair is both ends of a connection in one allocation. With n set,
// c's first Write starts n.serveHTTP on s: a probe starts no goroutine.
type connPair struct {
	up, down stream // client->server, server->client
	c, s     conn
	n        *Network
	ip       ipaddr.Addr
	useTLS   bool
	started  atomic.Bool
}

func newConnPair() *connPair {
	p := new(connPair)
	p.up.cond.L, p.down.cond.L = &p.up.mu, &p.down.mu
	p.c = conn{rd: &p.down, wr: &p.up, pair: p}
	p.s = conn{rd: &p.up, wr: &p.down}
	return p
}

func (c *conn) Read(p []byte) (int, error) { return c.rd.read(p) }

func (c *conn) Write(b []byte) (int, error) {
	if p := c.pair; p != nil && p.n != nil && p.started.CompareAndSwap(false, true) {
		go p.n.serveHTTP(&p.s, p.ip, p.useTLS)
	}
	return c.wr.write(b)
}

// Close closes both directions: the peer reads what was already
// written and then io.EOF; this end's parked Read returns, and bytes
// the peer sent that were not yet read are dropped.
func (c *conn) Close() error {
	c.wr.closeWrite()
	c.rd.closeRead()
	return nil
}

// connAddr is the address of both ends: the connection has no
// endpoints a caller could use.
type connAddr struct{}

func (connAddr) Network() string { return "netsim" }
func (connAddr) String() string  { return "netsim" }

func (c *conn) LocalAddr() net.Addr  { return connAddr{} }
func (c *conn) RemoteAddr() net.Addr { return connAddr{} }

func (c *conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline has nothing to bound: Write never blocks.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }
