package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// isTimeout reports whether err is a net.Error that timed out — what
// net/http, crypto/tls and the scanner test a read deadline for.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// parkedRead starts a Read on c and returns the channel its error
// arrives on. The sleep only makes it likely the read has parked: the
// closes and writes that follow are sticky, so a read that starts late
// must return the same thing.
func parkedRead(c net.Conn) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 8))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	return done
}

func waitErr(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Read still parked")
		return nil
	}
}

func TestConnContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, a, b net.Conn)
	}{
		{"bytes written before peer close are read, then EOF", func(t *testing.T, a, b net.Conn) {
			for _, chunk := range []string{"status line\r\n", "header\r\n", "\r\nbody"} {
				if n, err := io.WriteString(a, chunk); n != len(chunk) || err != nil {
					t.Fatalf("Write = %d, %v", n, err)
				}
			}
			a.Close()
			got, err := io.ReadAll(b)
			if string(got) != "status line\r\nheader\r\n\r\nbody" || err != nil {
				t.Errorf("ReadAll = %q, %v", got, err)
			}
			if _, err := b.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("Read after drain = %v, want io.EOF", err)
			}
		}},
		{"one write is one read", func(t *testing.T, a, b net.Conn) {
			msg := bytes.Repeat([]byte("x"), 9000)
			_, _ = a.Write(msg)
			buf := make([]byte, 32<<10)
			if n, err := b.Read(buf); n != len(msg) || err != nil {
				t.Errorf("Read = %d, %v, want the whole %d-byte write", n, err, len(msg))
			}
		}},
		{"a short read leaves the rest", func(t *testing.T, a, b net.Conn) {
			_, _ = io.WriteString(a, "abcdef")
			buf := make([]byte, 4)
			n1, _ := b.Read(buf)
			first := string(buf[:n1])
			n2, _ := b.Read(buf)
			if first+string(buf[:n2]) != "abcdef" || n1 != 4 {
				t.Errorf("reads = %q then %q", first, buf[:n2])
			}
		}},
		{"peer close wakes a parked read with EOF", func(t *testing.T, a, b net.Conn) {
			done := parkedRead(b)
			a.Close()
			if err := waitErr(t, done); err != io.EOF {
				t.Errorf("parked Read = %v, want io.EOF", err)
			}
		}},
		{"own close wakes a parked read", func(t *testing.T, a, b net.Conn) {
			done := parkedRead(b)
			b.Close()
			if err := waitErr(t, done); err != io.ErrClosedPipe {
				t.Errorf("parked Read = %v, want io.ErrClosedPipe", err)
			}
		}},
		{"own close drops unread bytes", func(t *testing.T, a, b net.Conn) {
			_, _ = io.WriteString(a, "unread")
			b.Close()
			if n, err := b.Read(make([]byte, 8)); n != 0 || err != io.ErrClosedPipe {
				t.Errorf("Read after own close = %d, %v", n, err)
			}
		}},
		{"write after own close fails", func(t *testing.T, a, b net.Conn) {
			a.Close()
			if _, err := a.Write([]byte("x")); err != io.ErrClosedPipe {
				t.Errorf("Write = %v, want io.ErrClosedPipe", err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close = %v", err)
			}
		}},
		{"write after peer close fails", func(t *testing.T, a, b net.Conn) {
			b.Close()
			if _, err := a.Write([]byte("x")); err != io.ErrClosedPipe {
				t.Errorf("Write = %v, want io.ErrClosedPipe", err)
			}
		}},
		{"read deadline in the past", func(t *testing.T, a, b net.Conn) {
			_ = b.SetReadDeadline(time.Now().Add(-time.Second))
			_, err := b.Read(make([]byte, 1))
			if !isTimeout(err) || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("Read = %v, want os.ErrDeadlineExceeded", err)
			}
			// As on a socket, the deadline wins over bytes that are
			// ready; clearing it delivers them.
			_, _ = io.WriteString(a, "late")
			if _, err := b.Read(make([]byte, 8)); !isTimeout(err) {
				t.Errorf("Read past the deadline with bytes ready = %v, want a timeout", err)
			}
			_ = b.SetReadDeadline(time.Time{})
			if n, err := b.Read(make([]byte, 8)); n != 4 || err != nil {
				t.Errorf("Read after clearing the deadline = %d, %v", n, err)
			}
		}},
		{"read deadline in the future", func(t *testing.T, a, b net.Conn) {
			start := time.Now()
			_ = b.SetDeadline(start.Add(30 * time.Millisecond))
			_, err := b.Read(make([]byte, 1))
			if !isTimeout(err) {
				t.Errorf("Read = %v, want a timeout", err)
			}
			if d := time.Since(start); d < 25*time.Millisecond {
				t.Errorf("Read returned after %v, before its deadline", d)
			}
		}},
		{"a replaced deadline does not fire", func(t *testing.T, a, b net.Conn) {
			_ = b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			_ = b.SetReadDeadline(time.Now().Add(time.Hour))
			done := parkedRead(b)
			time.Sleep(40 * time.Millisecond)
			_, _ = io.WriteString(a, "x")
			if err := waitErr(t, done); err != nil {
				t.Errorf("Read = %v after the first deadline was replaced", err)
			}
		}},
		{"write deadlines are accepted", func(t *testing.T, a, b net.Conn) {
			if err := a.SetWriteDeadline(time.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write([]byte("x")); err != nil {
				t.Errorf("Write = %v; a write never blocks, so it has no deadline to miss", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newConnPair()
			a, b := &p.c, &p.s
			defer a.Close()
			defer b.Close()
			tc.run(t, a, b)
		})
	}
}

// TestConnConcurrentReaderWriter streams in both directions at once;
// under -race it is the check that each direction's state is only
// touched under its lock.
func TestConnConcurrentReaderWriter(t *testing.T) {
	const chunks, size = 2000, 97
	send := func(c net.Conn, seed byte) {
		chunk := make([]byte, size)
		for i := 0; i < chunks; i++ {
			for j := range chunk {
				chunk[j] = seed + byte(i+j)
			}
			if _, err := c.Write(chunk); err != nil {
				t.Errorf("Write %d: %v", i, err)
				return
			}
		}
	}
	recv := func(c net.Conn, seed byte, done chan<- struct{}) {
		defer close(done)
		got, err := io.ReadAll(io.LimitReader(c, chunks*size))
		if err != nil || len(got) != chunks*size {
			t.Errorf("ReadAll = %d bytes, %v", len(got), err)
			return
		}
		for k, v := range got {
			if want := seed + byte(k/size+k%size); v != want {
				t.Errorf("byte %d = %d, want %d", k, v, want)
				return
			}
		}
	}
	p := newConnPair()
	a, b := &p.c, &p.s
	defer a.Close()
	defer b.Close()
	aDone, bDone := make(chan struct{}), make(chan struct{})
	go recv(a, 7, aDone)
	go recv(b, 3, bDone)
	go send(a, 3)
	send(b, 7)
	<-aDone
	<-bDone
}
