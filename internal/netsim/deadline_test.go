package netsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// withTimeouts are the two constructors the table runs side by side:
// the standard library's, which is the specification, and the lazy one.
var withTimeouts = map[string]func(context.Context, time.Duration) (context.Context, func()){
	"context.WithTimeout": func(p context.Context, d time.Duration) (context.Context, func()) {
		return context.WithTimeout(p, d)
	},
	"netsim.WithTimeout": func(p context.Context, d time.Duration) (context.Context, func()) {
		c := WithTimeout(p, d)
		return c, c.Release
	},
}

// reusedWithTimeouts are the lazy constructor again, on a context an
// owner reuses: Reset after a use that armed Done, and after one that
// ended without arming it. Each must observe what a fresh
// context.WithTimeout does.
var reusedWithTimeouts = map[string]func(context.Context, time.Duration) (context.Context, func()){
	"netsim reused after a waited use": func(p context.Context, d time.Duration) (context.Context, func()) {
		c := WithTimeout(context.Background(), time.Millisecond)
		<-c.Done()
		c.Reset(p, d)
		return c, c.Release
	},
	"netsim reused after an unwaited use": func(p context.Context, d time.Duration) (context.Context, func()) {
		c := WithTimeout(context.Background(), time.Millisecond)
		sleepPast(c.deadline)
		_ = c.Err()
		c.Release()
		c.Reset(p, d)
		return c, c.Release
	},
}

// sleepPast sleeps until t has passed.
func sleepPast(t time.Time) {
	for d := time.Until(t); d >= 0; d = time.Until(t) {
		time.Sleep(d + time.Millisecond)
	}
}

// settledErr is ctx.Err() once the context has ended: the standard
// context needs its timer to have fired, so wait on Done when Err does
// not yet say.
func settledErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	<-ctx.Done()
	return ctx.Err()
}

// opaqueCtx hides its parent's type and values, so the context package
// watches it with a goroutine of its own rather than a child
// registration.
type opaqueCtx struct{ context.Context }

func (opaqueCtx) Value(any) any { return nil }

// expiredUnendedCtx reports a deadline that has passed but has not
// ended, as a context between its deadline and its timer firing.
type expiredUnendedCtx struct{ context.Context }

func (expiredUnendedCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestDeadlineContextMatchesWithTimeout runs each scenario against
// context.WithTimeout and DeadlineContext and requires the same
// observations from both.
func TestDeadlineContextMatchesWithTimeout(t *testing.T) {
	type mkFunc = func(context.Context, time.Duration) (context.Context, func())
	scenarios := []struct {
		name string
		run  func(mk mkFunc) string
	}{
		{"deadline is now plus the timeout", func(mk mkFunc) string {
			before := time.Now()
			ctx, release := mk(context.Background(), time.Hour)
			defer release()
			dl, ok := ctx.Deadline()
			in := !dl.Before(before.Add(time.Hour)) && !dl.After(time.Now().Add(time.Hour))
			return fmt.Sprint(ok, in, ctx.Err())
		}},
		{"an earlier parent deadline wins", func(mk mkFunc) string {
			parent, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			ctx, release := mk(parent, time.Hour)
			defer release()
			dl, ok := ctx.Deadline()
			pdl, _ := parent.Deadline()
			return fmt.Sprint(ok, dl.Equal(pdl))
		}},
		{"a later parent deadline loses", func(mk mkFunc) string {
			parent, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			ctx, release := mk(parent, time.Minute)
			defer release()
			dl, _ := ctx.Deadline()
			pdl, _ := parent.Deadline()
			return fmt.Sprint(dl.Before(pdl))
		}},
		{"a passed parent deadline ends it only through the parent", func(mk mkFunc) string {
			// The parent's timer has not fired yet: until the parent says
			// so, neither context has ended, and a scanner that checks its
			// lane context after a probe sees the same thing the probe saw.
			ctx, release := mk(expiredUnendedCtx{context.Background()}, time.Hour)
			defer release()
			dl, _ := ctx.Deadline()
			select {
			case <-ctx.Done():
				return "done"
			case <-time.After(20 * time.Millisecond):
			}
			return fmt.Sprint(dl.Before(time.Now()), ctx.Err())
		}},
		{"err after the deadline", func(mk mkFunc) string {
			ctx, release := mk(context.Background(), 5*time.Millisecond)
			defer release()
			dl, _ := ctx.Deadline()
			sleepPast(dl)
			return fmt.Sprint(settledErr(ctx))
		}},
		{"err after the parent is cancelled", func(mk mkFunc) string {
			parent, cancel := context.WithCancel(context.Background())
			ctx, release := mk(parent, time.Hour)
			defer release()
			before := ctx.Err()
			cancel()
			return fmt.Sprint(before, settledErr(ctx))
		}},
		{"err after release", func(mk mkFunc) string {
			ctx, release := mk(context.Background(), time.Hour)
			release()
			return fmt.Sprint(ctx.Err())
		}},
		{"a cause once seen is kept", func(mk mkFunc) string {
			parent, cancel := context.WithCancel(context.Background())
			ctx, release := mk(parent, 5*time.Millisecond)
			dl, _ := ctx.Deadline()
			sleepPast(dl)
			first := settledErr(ctx)
			cancel()
			release()
			return fmt.Sprint(first, ctx.Err())
		}},
		{"done closes at the deadline", func(mk mkFunc) string {
			ctx, release := mk(context.Background(), 20*time.Millisecond)
			defer release()
			dl, _ := ctx.Deadline()
			<-ctx.Done()
			return fmt.Sprint(!time.Now().Before(dl), ctx.Err())
		}},
		{"done is already closed when first asked after expiry", func(mk mkFunc) string {
			ctx, release := mk(context.Background(), time.Millisecond)
			defer release()
			dl, _ := ctx.Deadline()
			sleepPast(dl)
			settledErr(ctx)
			select {
			case <-ctx.Done():
				return "closed " + fmt.Sprint(ctx.Err())
			default:
				return "open"
			}
		}},
		{"done closes when an opaque parent is cancelled", func(mk mkFunc) string {
			parent, cancel := context.WithCancel(context.Background())
			ctx, release := mk(opaqueCtx{parent}, time.Hour)
			defer release()
			done := ctx.Done()
			cancel()
			<-done
			return fmt.Sprint(ctx.Err())
		}},
		{"concurrent done callers share one channel", func(mk mkFunc) string {
			ctx, release := mk(context.Background(), 10*time.Millisecond)
			defer release()
			const n = 8
			chans := make([]<-chan struct{}, n)
			var wg sync.WaitGroup
			for i := range chans {
				wg.Add(1)
				go func() {
					defer wg.Done()
					chans[i] = ctx.Done()
					<-chans[i]
				}()
			}
			wg.Wait()
			same := true
			for _, c := range chans {
				same = same && c == chans[0]
			}
			return fmt.Sprint(same, ctx.Err())
		}},
		{"release closes an armed done", func(mk mkFunc) string {
			ctx, release := mk(context.Background(), time.Hour)
			done := ctx.Done()
			release()
			<-done
			return fmt.Sprint(ctx.Err())
		}},
		{"values come from the parent", func(mk mkFunc) string {
			ctx, release := mk(WithProbeSession(context.Background(), "s1"), time.Hour)
			defer release()
			return ProbeSession(ctx)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := sc.run(withTimeouts["context.WithTimeout"])
			if got := sc.run(withTimeouts["netsim.WithTimeout"]); got != want {
				t.Errorf("netsim.WithTimeout observed %q, context.WithTimeout %q", got, want)
			}
			for name, mk := range reusedWithTimeouts {
				if got := sc.run(mk); got != want {
					t.Errorf("%s observed %q, context.WithTimeout %q", name, got, want)
				}
			}
		})
	}
}

// TestDeadlineContextIsLazy pins what the type is for: reading
// Deadline and Err arms nothing, and Err reports an expiry without any
// timer having run.
func TestDeadlineContextIsLazy(t *testing.T) {
	c := WithTimeout(context.Background(), 5*time.Millisecond)
	defer c.Release()
	c.Deadline()
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	sleepPast(c.deadline)
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
	if c.waited != nil {
		t.Fatal("Deadline or Err armed a timer")
	}
	if n := testing.AllocsPerRun(100, func() {
		c := WithTimeout(context.Background(), time.Second)
		_ = c.Err()
		c.Release()
	}); n != 1 {
		t.Errorf("an unwaited deadline costs %v allocations, want 1", n)
	}
}

// TestDeadlineContextReleaseDisarms checks that Release cancels what
// Done armed, so its timer stops and the goroutine the context package
// starts to watch an opaque parent exits.
func TestDeadlineContextReleaseDisarms(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	c := WithTimeout(opaqueCtx{parent}, time.Hour)
	done := c.Done()
	if runtime.NumGoroutine() <= base {
		t.Fatal("arming Done on an opaque parent started no watcher goroutine")
	}
	c.Release()
	<-done
	if err := c.waited.Err(); err != context.Canceled {
		t.Errorf("the armed context after Release: Err = %v, want Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("watcher goroutine still running after Release: %d > %d goroutines", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineContextResetDisarms checks that Reset, like Release,
// cancels what a Done since the last Reset armed, so a reused context
// leaves no timer or watcher goroutine behind.
func TestDeadlineContextResetDisarms(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	c := WithTimeout(opaqueCtx{parent}, time.Hour)
	done := c.Done()
	c.Reset(context.Background(), time.Hour)
	<-done
	if c.waited != nil || c.Err() != nil {
		t.Errorf("after Reset: waited %v, Err %v; want a fresh context", c.waited, c.Err())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("watcher goroutine still running after Reset: %d > %d goroutines", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
