package netsim

import (
	"context"
	"sync"
	"time"
)

// DeadlineContext is context.WithTimeout with the timer armed by the
// first Done. Until then Deadline and Err read the clock, with the
// same answers: the earlier of its own and the parent's deadline; the
// parent's error, or DeadlineExceeded once past its own deadline, or
// Canceled after Release. netsim decides a dial from Deadline and Err,
// so a probe arms no timer; a dialer that waits (a fault layer's held
// dial, the cloudapi client's verdict wait, a real net.Dialer) calls
// Done and gets the context.WithDeadline it would have had.
type DeadlineContext struct {
	context.Context           // the parent, which answers Value
	deadline        time.Time // its own; the parent's may be earlier

	mu     sync.Mutex
	err    error           // the cause seen before Done was asked for, kept
	waited context.Context // made by the first Done
	cancel context.CancelFunc
}

// WithTimeout returns a DeadlineContext ending timeout from now, or at
// the parent's earlier deadline. Release it like a context.CancelFunc.
func WithTimeout(parent context.Context, timeout time.Duration) *DeadlineContext {
	return &DeadlineContext{Context: parent, deadline: time.Now().Add(timeout)}
}

func (c *DeadlineContext) Deadline() (time.Time, bool) {
	if dl, ok := c.Context.Deadline(); ok && dl.Before(c.deadline) {
		return dl, true
	}
	return c.deadline, true
}

func (c *DeadlineContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.err != nil:
	case c.waited != nil:
		return c.waited.Err()
	case c.Context.Err() != nil:
		c.err = c.Context.Err()
	case !time.Now().Before(c.deadline):
		c.err = context.DeadlineExceeded
	}
	return c.err
}

func (c *DeadlineContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waited == nil {
		c.waited, c.cancel = context.WithDeadline(c.Context, c.deadline)
		if c.err != nil {
			c.cancel() // already ended: Err keeps the cause it saw
		}
	}
	return c.waited.Done()
}

// Release ends the context with Canceled unless it has ended, and
// stops what Done armed.
func (c *DeadlineContext) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waited != nil {
		c.cancel()
	} else if c.err == nil {
		c.err = context.Canceled
	}
}
