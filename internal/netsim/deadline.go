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
// so a probe arms no timer. A dialer that waits has two choices. One
// that waits on a timer it reuses selects on Expiry's deadline and
// parent, and arms nothing here: the cloudapi client does. One
// that holds the dial on Done (a fault layer's held or delayed dial, a
// real net.Dialer) gets the context.WithDeadline it would have had.
//
// Reset makes a used context new again, so an owner that dials one
// probe at a time (a scan worker, a daemon's probe channel) needs one
// for all its probes. That relies on the netsim.Dialer rule that a
// dialer keeps no context after DialContext returns.
type DeadlineContext struct {
	parent   context.Context
	deadline time.Time // its own; the parent's may be earlier

	mu     sync.Mutex
	err    error           // the cause seen before Done was asked for, kept
	waited context.Context // made by the first Done
	cancel context.CancelFunc
}

// WithTimeout returns a DeadlineContext ending timeout from now, or at
// the parent's earlier deadline. Release it like a context.CancelFunc.
func WithTimeout(parent context.Context, timeout time.Duration) *DeadlineContext {
	c := new(DeadlineContext)
	c.Reset(parent, timeout)
	return c
}

// Reset makes c what WithTimeout(parent, timeout) returns, stopping
// whatever a Done since the last Reset armed. Only the owner calls it,
// when no dial holds c.
func (c *DeadlineContext) Reset(parent context.Context, timeout time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waited != nil {
		c.cancel()
	}
	c.parent, c.deadline = parent, time.Now().Add(timeout)
	c.err, c.waited, c.cancel = nil, nil, nil
}

// Expiry is what a dialer waits on instead of Done: the context's own
// deadline, for a timer the dialer keeps, and the parent, whose Done
// closes on cancellation or at its earlier deadline and whose Err is
// then the answer. Waiting on both ends the wait when Done would have
// closed, and arms nothing.
func (c *DeadlineContext) Expiry() (time.Time, context.Context) {
	return c.deadline, c.parent
}

func (c *DeadlineContext) Deadline() (time.Time, bool) {
	if dl, ok := c.parent.Deadline(); ok && dl.Before(c.deadline) {
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
	case c.parent.Err() != nil:
		c.err = c.parent.Err()
	case !time.Now().Before(c.deadline):
		c.err = context.DeadlineExceeded
	}
	return c.err
}

func (c *DeadlineContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waited == nil {
		c.waited, c.cancel = context.WithDeadline(c.parent, c.deadline)
		if c.err != nil {
			c.cancel() // already ended: Err keeps the cause it saw
		}
	}
	return c.waited.Done()
}

// Value answers from the parent.
func (c *DeadlineContext) Value(key any) any { return c.parent.Value(key) }

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
