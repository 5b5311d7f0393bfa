package cloudapi

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"whowas/internal/metrics"
)

// lingeringConn stands in for a parked simulated connection whose
// host is still absorbing the client's bytes when the tunnel ends: a
// Write blocks until the connection is closed and returns a while
// after, recording the cloudd.active_tunnels gauge as it does. Read
// answers EOF once a Write has started, so the simulated→client half
// of the splice ends first.
type lingeringConn struct {
	net.Conn // nil: only the methods below are called
	tunnels  *metrics.Gauge

	closeOnce sync.Once
	closed    chan struct{}
	writing   chan struct{}
	gaugeSeen chan int64 // the gauge when the lingering Write returned
}

func (c *lingeringConn) Read([]byte) (int, error) {
	<-c.writing
	return 0, io.EOF
}

func (c *lingeringConn) Write([]byte) (int, error) {
	close(c.writing)
	<-c.closed
	time.Sleep(20 * time.Millisecond)
	c.gaugeSeen <- c.tunnels.Load()
	return 0, net.ErrClosed
}

func (c *lingeringConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// TestTunnelSpliceJoinsBeforeGaugeDrops pins the tunnel's join: the
// client→simulated splice goroutine must be done with the simulated
// connection before serveTunnel counts the tunnel as gone, so
// cloudd.active_tunnels never reads 0 while a splice still writes.
func TestTunnelSpliceJoinsBeforeGaugeDrops(t *testing.T) {
	backing, err := NewInProcess(conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := NewServer(backing, ServerConfig{Metrics: reg})
	inner := &lingeringConn{
		tunnels:   reg.Gauge("cloudd.active_tunnels"),
		closed:    make(chan struct{}),
		writing:   make(chan struct{}),
		gaugeSeen: make(chan int64, 1),
	}
	srv.channels[7] = &serverChannel{parked: map[uint32]net.Conn{1: inner}}

	server, client := net.Pipe()
	defer client.Close()
	go func() {
		// Read the status line, send one byte for the splice to carry,
		// then drain until the server closes its end.
		br := bufio.NewReader(client)
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		_, _ = client.Write([]byte("x"))
		_, _ = io.Copy(io.Discard, br)
	}()
	srv.serveTunnel(server, bufio.NewReader(server), 7, 1)
	if n := reg.Gauge("cloudd.active_tunnels").Load(); n != 0 {
		t.Fatalf("cloudd.active_tunnels = %d after the tunnel ended, want 0", n)
	}
	select {
	case seen := <-inner.gaugeSeen:
		if seen != 1 {
			t.Errorf("the client→simulated splice was still writing when cloudd.active_tunnels read %d; it must end before the gauge drops", seen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the splice never wrote the client's byte into the simulated connection")
	}
}
