// Package trace is WhoWas's campaign flight recorder: a lock-cheap
// span tracer that records where each round's wall-clock time went and
// which pipeline operations a fault touched. The platform opens one
// root span per round with child spans per stage (scan, fetch,
// featurize, finalize, plus cluster and carto passes), and the scanner
// and fetcher add sampled per-IP probe/GET spans carrying attributes
// like region, prefix, attempt count and the fault kinds injected into
// them.
//
// Completed spans land in a bounded in-memory ring buffer (the live
// /trace/slowest window) and, optionally, in an append-only JSONL
// journal (see journal.go) from which a whole campaign's span tree can
// be replayed post-mortem. Campaigns of the paper's length (three
// months on EC2) are only debuggable after the fact with exactly this
// kind of record: a slow round or a retry storm must be attributable
// to a region, a prefix, or a stage long after the goroutines that ran
// it are gone.
//
// Like internal/metrics, everything is nil-safe: a nil *Tracer hands
// out nil *Spans, every Span method no-ops on a nil receiver, and
// SampleIP on a nil tracer reports false — an untraced campaign pays
// one nil check per instrumentation site and nothing else (the
// overhead benchmark in internal/core holds the instrumented pipeline
// within ~2% of baseline). Span Start/End take one short mutex each;
// per-IP spans are sampled, so the hot path reaches the lock rarely.
package trace

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Values are strings; use the typed
// constructors for other kinds.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// ringSize bounds the in-memory ring of completed spans: the
// /trace/slowest window, and what a distributed worker can hold
// between two shard submissions (CompletedSince).
const ringSize = 4096

// Config tunes a Tracer.
type Config struct {
	// SamplePerMille is the per-IP sampling rate for probe/GET spans:
	// SampleIP admits roughly this fraction of the address space,
	// chosen by a pure hash of the IP so the same addresses are
	// sampled every round and every run. 0 takes the default (10, i.e.
	// 1%); negative disables per-IP spans; >= 1000 samples every IP.
	SamplePerMille int
	// Journal, when non-nil, receives one JSON line per completed span
	// (see SpanSnapshot). Writes happen under the tracer's mutex in
	// span-completion order; wrap files in a Journal (journal.go) for
	// buffering and crash-safe renames. If it also implements
	// io.Closer, Tracer.Close closes it.
	Journal io.Writer
}

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	out := c
	if out.SamplePerMille == 0 {
		out.SamplePerMille = 10
	}
	return out
}

// Tracer records spans. Safe for concurrent use; a nil *Tracer is a
// valid no-op tracer.
type Tracer struct {
	cfg Config
	ids atomic.Uint64

	mu        sync.Mutex
	active    map[uint64]*Span
	ring      []SpanSnapshot
	ringNext  int
	completed int64
	jerr      error
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	c := cfg.WithDefaults()
	return &Tracer{
		cfg:    c,
		active: make(map[uint64]*Span),
		ring:   make([]SpanSnapshot, 0, ringSize),
	}
}

// Span is one timed operation. A nil *Span is a valid no-op handle, so
// call sites need no tracer-enabled branching.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Start opens a span. A nil parent makes it a root span; a nil tracer
// returns a nil (no-op) span.
func (t *Tracer) Start(name string, parent *Span, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, id: t.ids.Add(1), name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	t.mu.Lock()
	t.active[s.id] = s
	t.mu.Unlock()
	return s
}

// mix64 is the splitmix64 finalizer, the same mixing netsim, cloudsim
// and the fault layer use for seeded decisions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SampleIP reports whether per-IP spans should be recorded for ip. The
// decision is a pure function of ip — never a counter or
// an RNG — so identical campaigns journal identical span sets and one
// IP's spans appear in every round it was probed.
func (t *Tracer) SampleIP(ip uint64) bool {
	if t == nil {
		return false
	}
	pm := t.cfg.SamplePerMille
	if pm <= 0 {
		return false
	}
	if pm >= 1000 {
		return true
	}
	return mix64(ip^mix64(0x9e3779b97f4a7c15))%1000 < uint64(pm)
}

// ID returns the span's id (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr adds or replaces attributes. Safe from any goroutine;
// attributes set after End are dropped (the span was already
// journaled).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
outer:
	for _, a := range attrs {
		for i := range s.attrs {
			if s.attrs[i].Key == a.Key {
				s.attrs[i].Value = a.Value
				continue outer
			}
		}
		s.attrs = append(s.attrs, a)
	}
}

// snapshotLocked copies the span; callers hold s.mu.
func (s *Span) snapshotLocked(now time.Time, active bool) SpanSnapshot {
	snap := SpanSnapshot{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: s.start.UnixNano(),
		DurNS:   now.Sub(s.start).Nanoseconds(),
		Active:  active,
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			snap.Attrs[a.Key] = a.Value
		}
	}
	return snap
}

// End completes the span: it leaves the active set, enters the ring
// buffer, and is appended to the journal. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	snap := s.snapshotLocked(time.Now(), false)
	s.mu.Unlock()

	t := s.tr
	t.mu.Lock()
	delete(t.active, s.id)
	t.recordLocked(snap)
	t.mu.Unlock()
}

// recordLocked files one completed span into the ring and journal;
// callers hold t.mu.
func (t *Tracer) recordLocked(snap SpanSnapshot) {
	t.completed++
	if len(t.ring) < ringSize {
		t.ring = append(t.ring, snap)
	} else {
		t.ring[t.ringNext] = snap
		t.ringNext = (t.ringNext + 1) % len(t.ring)
	}
	if t.cfg.Journal != nil && t.jerr == nil {
		line, err := json.Marshal(snap)
		if err == nil {
			line = append(line, '\n')
			_, err = t.cfg.Journal.Write(line)
		}
		t.jerr = err
	}
}

// ReserveIDs allocates n consecutive span IDs from this tracer's
// sequence and returns the first, so foreign spans can be renumbered
// into the local ID space without colliding with concurrently started
// spans. Returns 0 (an invalid ID) on a nil tracer or n <= 0.
func (t *Tracer) ReserveIDs(n int) uint64 {
	if t == nil || n <= 0 {
		return 0
	}
	return t.ids.Add(uint64(n)) - uint64(n) + 1
}

// Record ingests already-completed foreign spans — a worker's
// submitted spans the coordinator merges into its own journal. The spans
// enter the ring and journal exactly as if they had ended here, in the
// order given. Callers renumber IDs into this tracer's space first
// (ReserveIDs plus a parent remap, as the coordinator does for each
// accepted shard) so they cannot collide with locally issued spans.
func (t *Tracer) Record(snaps ...SpanSnapshot) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, snap := range snaps {
		snap.Active = false
		t.recordLocked(snap)
	}
}

// Active snapshots the currently open spans, ordered by start time
// (oldest first) — the live "what is the campaign doing right now"
// view behind /trace/active.
func (t *Tracer) Active() []SpanSnapshot {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	out := make([]SpanSnapshot, 0, len(t.active))
	for _, s := range t.active {
		s.mu.Lock()
		out = append(out, s.snapshotLocked(now, true))
		s.mu.Unlock()
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Slowest returns up to n completed spans from the ring buffer,
// worst latency first — the live /trace/slowest view.
func (t *Tracer) Slowest(n int) []SpanSnapshot {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanSnapshot(nil), t.ring...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurNS != out[j].DurNS {
			return out[i].DurNS > out[j].DurNS
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Completed returns how many spans have ended over the tracer's
// lifetime (the ring keeps only the most recent ringSize of them).
func (t *Tracer) Completed() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// CompletedSince returns the spans that completed after the first
// cursor completions, in completion order, and the cursor to pass
// next time. Spans the ring has already evicted are lost, oldest
// first. A distributed worker takes each shard's spans this way for
// its submission; a nil tracer returns nothing and the same cursor.
func (t *Tracer) CompletedSince(cursor int64) ([]SpanSnapshot, int64) {
	if t == nil {
		return nil, cursor
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(min(t.completed-cursor, int64(len(t.ring))))
	if n <= 0 {
		return nil, t.completed
	}
	// The newest span sits just before ringNext (which stays 0 until
	// the ring is full), so the last n start n slots before it.
	out := make([]SpanSnapshot, n)
	for i := range out {
		out[i] = t.ring[(t.ringNext+len(t.ring)-n+i)%len(t.ring)]
	}
	return out, t.completed
}

// Close flushes and closes the journal (when it implements io.Closer)
// and surfaces any journal write error. The tracer itself stays usable
// for in-memory queries; further completed spans are not journaled.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	j := t.cfg.Journal
	t.cfg.Journal = nil
	err := t.jerr
	t.mu.Unlock()
	if c, ok := j.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ctxKey keys the span stored in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the span; a nil span returns ctx
// unchanged, so untraced pipelines allocate nothing.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil. The fault
// injector uses it to annotate whichever probe/GET span initiated a
// dial it tampered with.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
