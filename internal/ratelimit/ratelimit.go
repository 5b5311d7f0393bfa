// Package ratelimit provides a token-bucket rate limiter. The WhoWas
// scanner uses it to enforce the global probe budget (250 probes per
// second by default, §4) across all scanning workers; the cartography
// sweep uses a second instance for its "suitably low rate" DNS queries.
//
// The limiter is safe for concurrent use and supports a pluggable clock
// so the simulated campaigns and tests never sleep on the wall clock.
package ratelimit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Clock abstracts time for the limiter. The zero Limiter uses the real
// clock; simulations install a fake.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error { return Sleep(ctx, d) }

// Sleep blocks for d on the wall clock or until ctx is done, returning
// ctx.Err() in the latter case. A non-positive d returns at once.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Limiter is a token bucket: capacity burst, refilled at rate tokens
// per second. Wait blocks until a token is available.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	clock  Clock
}

// ErrBadRate reports an invalid limiter configuration.
var ErrBadRate = errors.New("ratelimit: rate and burst must be positive")

// New builds a limiter issuing rate tokens per second with the given
// burst capacity, using the real clock.
func New(rate float64, burst int) (*Limiter, error) {
	return NewWithClock(rate, burst, realClock{})
}

// NewWithClock is New with an explicit clock (for simulation/tests).
func NewWithClock(rate float64, burst int, clock Clock) (*Limiter, error) {
	if rate <= 0 || burst <= 0 {
		return nil, fmt.Errorf("%w: rate=%v burst=%d", ErrBadRate, rate, burst)
	}
	if clock == nil {
		clock = realClock{}
	}
	return &Limiter{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   clock.Now(),
		clock:  clock,
	}, nil
}

// refillLocked advances the bucket to now. Callers hold mu.
func (l *Limiter) refillLocked(now time.Time) {
	elapsed := now.Sub(l.last)
	if elapsed <= 0 {
		return
	}
	l.last = now
	l.tokens += elapsed.Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}

// Allow reports whether one token is immediately available, consuming
// it if so. It never blocks.
func (l *Limiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked(l.clock.Now())
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// Wait blocks until a token is available or ctx is cancelled.
func (l *Limiter) Wait(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.mu.Lock()
		now := l.clock.Now()
		l.refillLocked(now)
		if l.tokens >= 1 {
			l.tokens--
			l.mu.Unlock()
			return nil
		}
		need := (1 - l.tokens) / l.rate
		l.mu.Unlock()
		d := time.Duration(need * float64(time.Second))
		if d < time.Microsecond {
			d = time.Microsecond
		}
		if err := l.clock.Sleep(ctx, d); err != nil {
			return err
		}
	}
}

// Rate returns the configured tokens-per-second rate.
func (l *Limiter) Rate() float64 { return l.rate }

// FakeClock is a manually advanced clock for tests and simulated
// campaigns. Sleeps complete by advancing virtual time immediately, so
// rate-limited loops run at full speed while preserving limiter
// accounting.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the current virtual time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances virtual time by d and returns immediately.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

// Advance moves the virtual clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}
