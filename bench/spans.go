package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans
// of one replayed round (or one analysis pass) share a trace id; Parent
// is 0 for a root. Times are nanoseconds since the recorder's epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the traced pass ends. A nil
// recorder records nothing, so the same code path runs traced and
// untraced (that pair is trace.overhead_ratio).
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; end closes it.
type openSpan struct {
	r  *recorder
	at int // index in r.spans
	id uint64
}

// start opens a span under parent (nil for a new root, which also
// starts a new trace).
func (r *recorder) start(parent *openSpan, name string) *openSpan {
	if r == nil {
		return nil
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := uint64(len(r.spans) + 1)
	s := span{Trace: id, ID: id, Name: name, Start: now}
	if parent != nil {
		s.Parent = parent.id
		s.Trace = r.spans[parent.at].Trace
	}
	r.spans = append(r.spans, s)
	return &openSpan{r: r, at: len(r.spans) - 1, id: id}
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	now := time.Since(o.r.epoch).Nanoseconds()
	o.r.mu.Lock()
	o.r.spans[o.at].End = now
	o.r.mu.Unlock()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children (clipped to the
// parent, so overlapping or overhanging children are not counted
// twice).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// nameTotal sums one span name's durations and self times.
type nameTotal struct {
	Count       int
	Total, Self time.Duration
}

func totalsByName(spans []span) map[string]*nameTotal {
	self := selfTimes(spans)
	out := map[string]*nameTotal{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &nameTotal{}
			out[s.Name] = t
		}
		d := time.Duration(s.End - s.Start)
		t.Count++
		t.Total += d
		t.Self += time.Duration(self[s.ID])
	}
	return out
}

// writeFile creates path, lets fill write through a buffer, and
// flushes and closes it, reporting the first failure.
func writeFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSpansJSONL writes one span per line.
func writeSpansJSONL(path string, spans []span) error {
	err := writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
