package store

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whowas/internal/metrics"
)

// readAheadBackend wraps a backend to watch Scan's reads: it counts
// them, records the buffer each was given, fails every Read of a round
// at or past failFrom (when positive), and runs hold, when set, inside
// each Read before it returns.
type readAheadBackend struct {
	Backend
	failFrom int
	hold     func(i int)

	reads atomic.Int64
	mu    sync.Mutex
	bufs  []*RoundBuf
}

func (b *readAheadBackend) Read(i int, f Fields, buf *RoundBuf) ([]*Record, error) {
	b.mu.Lock()
	b.bufs = append(b.bufs, buf)
	b.mu.Unlock()
	if b.hold != nil {
		b.hold(i)
	}
	b.reads.Add(1)
	if b.failFrom > 0 && i >= b.failFrom {
		return nil, errors.New("segment truncated")
	}
	return b.Backend.Read(i, f, buf)
}

// readAheadStore returns a store of rounds one-record rounds behind a
// readAheadBackend.
func readAheadStore(t *testing.T, rounds int) (*Store, *readAheadBackend) {
	t.Helper()
	mem := NewMemoryBackend()
	for i := 0; i < rounds; i++ {
		if err := mem.Append(RoundMeta{Index: i, Day: i, Records: 1}, []*Record{mkRecord(fmt.Sprintf("10.0.0.%d", i), i)}); err != nil {
			t.Fatal(err)
		}
	}
	b := &readAheadBackend{Backend: mem}
	return NewWithBackend("ec2", b), b
}

// settled waits, for up to a second, until no more goroutines run than
// before, and reports whether they did.
func settled(before int) bool {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestScanStopReadsAtMostOneAhead: a fold that stops at round k costs
// at most the one read already in flight, k+2 reads in all, and Scan
// has waited for that read and its goroutine by the time it returns.
func TestScanStopReadsAtMostOneAhead(t *testing.T) {
	const rounds = 6
	st, b := readAheadStore(t, rounds)
	for k := 0; k < rounds; k++ {
		before := runtime.NumGoroutine()
		b.reads.Store(0)
		seen := 0
		st.Scan(FieldPorts, func(r *Round) bool {
			seen++
			return r.Index < k
		})
		reads := b.reads.Load()
		if seen != k+1 || reads > int64(k+2) {
			t.Errorf("stop at round %d: fold saw %d rounds, backend read %d times; want %d, at most %d", k, seen, reads, k+1, k+2)
		}
		if !settled(before) {
			t.Errorf("stop at round %d: %d goroutines a second after Scan returned, %d before it", k, runtime.NumGoroutine(), before)
		}
		if again := b.reads.Load(); again != reads {
			t.Errorf("stop at round %d: backend read %d times after Scan returned", k, again-reads)
		}
	}
}

// TestScanReadAheadFailure: a backend failure in the read-ahead of
// round 1 panics out of Scan on the caller's goroutine — recovered
// here, where it would otherwise crash the test binary — once the fold
// of round 0 returns; the fold never sees round 1, and the store's lock
// is free.
func TestScanReadAheadFailure(t *testing.T) {
	st, b := readAheadStore(t, 3)
	b.failFrom = 1
	var seen []int
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Scan over a backend failing from round 1 did not panic")
			}
		}()
		st.Scan(FieldPorts, func(r *Round) bool {
			seen = append(seen, r.Index)
			return true
		})
	}()
	if len(seen) != 1 || seen[0] != 0 {
		t.Errorf("fold saw rounds %v, want [0]", seen)
	}
	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked: the read-ahead's failure left the store locked")
	}
}

// TestScanFoldPanicAwaitsRead: when the fold panics, the panic reaches
// Scan's caller only after the read in flight has finished, and the
// next Scan decodes into the same buffer pair.
func TestScanFoldPanicAwaitsRead(t *testing.T) {
	st, b := readAheadStore(t, 3)
	foldPanicked := make(chan struct{})
	var readDone atomic.Bool
	b.hold = func(i int) {
		if i == 1 {
			<-foldPanicked
			time.Sleep(20 * time.Millisecond)
			readDone.Store(true)
		}
	}
	func() {
		defer func() {
			if v := recover(); v != "fold failed" {
				t.Errorf("Scan panicked with %v, want the fold's panic", v)
			}
			if !readDone.Load() {
				t.Error("Scan's panic escaped before the read in flight finished")
			}
		}()
		st.Scan(FieldPorts, func(*Round) bool {
			close(foldPanicked)
			panic("fold failed")
		})
	}()
	b.hold = nil
	first := b.bufs
	b.bufs = nil
	st.Scan(FieldPorts, func(*Round) bool { return true })
	if len(first) != 2 || len(b.bufs) != 3 {
		t.Fatalf("scans read %d then %d rounds, want 2 then 3", len(first), len(b.bufs))
	}
	for i, buf := range b.bufs {
		if buf != first[i%2] {
			t.Errorf("second scan read round %d into %p, want the first scan's %p", i, buf, first[i%2])
		}
	}
}

// TestScanWaitMetric: store.scan_wait observes one wait per round a
// Scan hands its fold, and a store with no registry scans without one.
func TestScanWaitMetric(t *testing.T) {
	const rounds = 4
	st, _ := readAheadStore(t, rounds)
	st.Scan(FieldPorts, func(*Round) bool { return true })
	reg := metrics.NewRegistry()
	st.SetMetrics(reg)
	st.Scan(FieldPorts, func(*Round) bool { return true })
	st.Scan(FieldPorts, func(r *Round) bool { return r.Index < 1 })
	if got := reg.Snapshot().Histograms["store.scan_wait"].Count; got != rounds+2 {
		t.Errorf("store.scan_wait counted %d waits, want %d", got, rounds+2)
	}
}
