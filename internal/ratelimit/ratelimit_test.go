package ratelimit

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		rate  float64
		burst int
	}{{0, 1}, {-1, 1}, {1, 0}, {1, -5}} {
		if _, err := New(c.rate, c.burst); err == nil {
			t.Errorf("New(%v,%d) succeeded, want error", c.rate, c.burst)
		}
	}
	if _, err := New(250, 10); err != nil {
		t.Errorf("New(250,10): %v", err)
	}
}

func TestAllowBurst(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	l, err := NewWithClock(10, 3, clock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("Allow %d denied within burst", i)
		}
	}
	if l.Allow() {
		t.Fatal("Allow granted beyond burst without refill")
	}
	clock.Advance(100 * time.Millisecond) // refills exactly 1 token at 10/s
	if !l.Allow() {
		t.Fatal("Allow denied after refill")
	}
	if l.Allow() {
		t.Fatal("Allow granted twice after single-token refill")
	}
}

func TestRefillCapsAtBurst(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	l, _ := NewWithClock(1000, 2, clock)
	clock.Advance(time.Hour)
	granted := 0
	for l.Allow() {
		granted++
		if granted > 10 {
			break
		}
	}
	if granted != 2 {
		t.Errorf("granted %d tokens after long idle, want burst=2", granted)
	}
}

func TestWaitPacesRequests(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	l, _ := NewWithClock(250, 1, clock)
	ctx := context.Background()
	start := clock.Now()
	const n = 500
	for i := 0; i < n; i++ {
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clock.Now().Sub(start).Seconds()
	// 500 tokens at 250/s must take >= ~2 virtual seconds (minus burst).
	if elapsed < 1.9 {
		t.Errorf("500 waits at 250/s advanced only %.3fs of virtual time", elapsed)
	}
	if elapsed > 2.5 {
		t.Errorf("500 waits at 250/s advanced %.3fs, want ~2s", elapsed)
	}
}

func TestWaitContextCancelled(t *testing.T) {
	l, _ := New(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Drain the burst token first so Wait must block.
	l.Allow()
	if err := l.Wait(ctx); err != context.Canceled {
		t.Errorf("Wait on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestConcurrentWaitTotalThroughput(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	l, _ := NewWithClock(1000, 5, clock)
	ctx := context.Background()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := l.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := workers * perWorker
	elapsed := clock.Now().Sub(time.Unix(0, 0)).Seconds()
	if min := float64(total-5)/1000 - 0.05; elapsed < min {
		t.Errorf("%d tokens at 1000/s advanced only %.3fs virtual time, want >= %.3f", total, elapsed, min)
	}
}

func TestRealClockSleepCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := realClock{}.Sleep(ctx, time.Hour)
	if err != context.Canceled {
		t.Errorf("Sleep = %v, want context.Canceled", err)
	}
}

func TestRate(t *testing.T) {
	l, _ := New(42, 1)
	if l.Rate() != 42 {
		t.Errorf("Rate = %v, want 42", l.Rate())
	}
}
