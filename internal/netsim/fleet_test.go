package netsim

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// discardHandler drains the connection until the peer (or the fleet)
// closes it — the shape of a long-lived tunnel handler.
func discardHandler(c net.Conn) { _, _ = io.Copy(io.Discard, c) }

func TestFleetBoundedListeners(t *testing.T) {
	f := NewFleet(FleetConfig{Max: 2})
	defer f.Close()
	for i := 0; i < 2; i++ {
		if _, err := f.Listen(discardHandler); err != nil {
			t.Fatalf("listener %d: %v", i, err)
		}
	}
	if _, err := f.Listen(discardHandler); err == nil {
		t.Fatal("third listener accepted past Max=2")
	}
	if n := f.NumListeners(); n != 2 {
		t.Errorf("NumListeners = %d, want 2", n)
	}
	if _, err := f.Listen(nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestFleetDeterministicPorts(t *testing.T) {
	// A fixed base makes the i-th listener's port predictable — the
	// property whowas-cloudd relies on for stable data-plane addresses.
	// Any of base..base+2 may be taken — by another process, or by the
	// thousands of ephemeral loopback sockets the packages tested beside
	// this one open — so a failed listen moves on to the next base.
candidates:
	for _, base := range []int{39120, 39370, 39620, 39870} {
		f := NewFleet(FleetConfig{Max: 3, BasePort: base})
		for i := 0; i < 3; i++ {
			addr, err := f.Listen(discardHandler)
			if err != nil {
				t.Logf("base %d: listener %d: %v", base, i, err)
				_ = f.Close()
				continue candidates
			}
			if want := fmt.Sprintf("127.0.0.1:%d", base+i); addr != want {
				t.Errorf("listener %d at %s, want %s", i, addr, want)
			}
		}
		addrs := f.Addrs()
		if want := fmt.Sprintf("127.0.0.1:%d", base); len(addrs) != 3 || addrs[0] != want {
			t.Errorf("Addrs() = %v", addrs)
		}
		_ = f.Close()
		return
	}
	t.Skip("no candidate base has three consecutive free ports")
}

func TestFleetCloseIdempotentAndDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	f := NewFleet(FleetConfig{Max: 4})

	// Handlers that block forever on read: only a force-close from the
	// fleet can unwind them.
	started := make(chan struct{}, 16)
	addr, err := f.Listen(func(c net.Conn) {
		started <- struct{}{}
		discardHandler(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	var clients []net.Conn
	for i := 0; i < 5; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("handler never started")
		}
	}

	// Concurrent Closes must all succeed and all wait for the drain.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()

	// After Close returns, accept loops and handlers have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("%d goroutines after Close, %d before: fleet leaked", g, before)
	}

	// Listening on a closed fleet fails; closing again stays nil.
	if _, err := f.Listen(discardHandler); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Listen after Close = %v, want closed error", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("re-Close: %v", err)
	}
	for _, c := range clients {
		_ = c.Close()
	}
}

func TestFleetHandlerEcho(t *testing.T) {
	f := NewFleet(FleetConfig{})
	defer f.Close()
	addr, err := f.Listen(func(c net.Conn) {
		_, _ = io.Copy(c, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "ping"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Errorf("echo = %q", buf)
	}
}
