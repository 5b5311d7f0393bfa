package trace

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("round", nil, Int("round", 0))
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	// Every handle method must be callable on nil.
	sp.SetAttr(String("k", "v"))
	sp.End()
	if sp.ID() != 0 {
		t.Error("nil span has an ID")
	}
	if tr.SampleIP(42) {
		t.Error("nil tracer samples")
	}
	if tr.Active() != nil || tr.Slowest(5) != nil || tr.Completed() != 0 {
		t.Error("nil tracer reports state")
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
	ctx := NewContext(context.Background(), nil)
	if ctx != context.Background() {
		t.Error("NewContext with nil span allocated")
	}
	if FromContext(ctx) != nil {
		t.Error("FromContext found a span in an empty context")
	}
}

func TestSpanLifecycleAndTree(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("round", nil, Int("round", 3), Int("day", 9))
	child := tr.Start("scan", root)
	act := tr.Active()
	if len(act) != 2 || !act[0].Active || act[0].Name != "round" {
		t.Fatalf("Active() = %+v", act)
	}

	child.SetAttr(String("region", "east"))
	child.SetAttr(String("region", "west")) // replace, not duplicate
	child.End()
	child.End() // idempotent
	root.SetAttr(Bool("degraded", true))
	root.End()

	if got := len(tr.Active()); got != 0 {
		t.Fatalf("active after End = %d", got)
	}
	if got := tr.Completed(); got != 2 {
		t.Fatalf("completed = %d, want 2", got)
	}
	slow := tr.Slowest(10)
	if len(slow) != 2 {
		t.Fatalf("slowest = %d spans", len(slow))
	}
	// Root started first and ended last: it must be the slower one.
	if slow[0].Name != "round" || slow[0].Attr("degraded") != "true" {
		t.Errorf("slowest[0] = %+v", slow[0])
	}
	var scan SpanSnapshot
	for _, s := range slow {
		if s.Name == "scan" {
			scan = s
		}
	}
	if scan.Parent != root.ID() || scan.Attr("region") != "west" {
		t.Errorf("child snapshot = %+v", scan)
	}
	// SetAttr after End is dropped, not raced.
	child.SetAttr(String("late", "x"))
	for _, s := range tr.Slowest(10) {
		if s.Attr("late") != "" {
			t.Error("attribute set after End was recorded")
		}
	}
}

func TestRingBufferBounded(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < ringSize+50; i++ {
		sp := tr.Start("op", nil, Int("i", i))
		sp.End()
	}
	if got := tr.Completed(); got != ringSize+50 {
		t.Fatalf("completed = %d", got)
	}
	slow := tr.Slowest(2 * ringSize)
	if len(slow) != ringSize {
		t.Fatalf("ring kept %d spans, want %d", len(slow), ringSize)
	}
	for _, s := range slow {
		if i := atoiAttr(s, "i"); i < 50 {
			t.Errorf("ring kept evicted span i=%d", i)
		}
	}
}

// TestCompletedSinceArrivalOrder: the cursor hands out each completed
// span once, in completion order, with its tree and attributes intact.
func TestCompletedSinceArrivalOrder(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("round", nil, Int("round", 0))
	child := tr.Start("scan", root, String("regions", "r1"))
	child.End()
	root.End()

	spans, cur := tr.CompletedSince(0)
	if len(spans) != 2 || cur != 2 {
		t.Fatalf("took %d spans, cursor %d; want 2, 2", len(spans), cur)
	}
	// Completion order: child first.
	if spans[0].Name != "scan" || spans[1].Name != "round" {
		t.Errorf("unexpected order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID || spans[0].Attr("regions") != "r1" {
		t.Errorf("child snapshot = %+v", spans[0])
	}
	if again, next := tr.CompletedSince(cur); again != nil || next != cur {
		t.Errorf("second take = %d spans, cursor %d; want none, %d", len(again), next, cur)
	}
	tr.Start("fetch", nil).End()
	if spans, _ := tr.CompletedSince(cur); len(spans) != 1 || spans[0].Name != "fetch" {
		t.Errorf("take after one more span = %+v", spans)
	}
}

// TestCompletedSinceDropsOldestAtCapacity: a cursor that falls more
// than the ring behind gets the newest ringSize spans, oldest first.
func TestCompletedSinceDropsOldestAtCapacity(t *testing.T) {
	tr := New(Config{})
	tr.Start("op", nil, Int("i", 0)).End()
	_, cur := tr.CompletedSince(0)
	const extra = 10
	for i := 1; i <= ringSize+extra; i++ {
		tr.Start("op", nil, Int("i", i)).End()
	}
	spans, next := tr.CompletedSince(cur)
	if len(spans) != ringSize || next != ringSize+extra+1 {
		t.Fatalf("took %d spans, cursor %d; want %d, %d", len(spans), next, ringSize, ringSize+extra+1)
	}
	for k, s := range spans {
		if i := atoiAttr(s, "i"); i != extra+1+k {
			t.Fatalf("span %d is i=%d, want %d", k, i, extra+1+k)
		}
	}
}

func TestCompletedSinceNilTracer(t *testing.T) {
	var tr *Tracer
	if spans, cur := tr.CompletedSince(7); spans != nil || cur != 7 {
		t.Errorf("nil tracer took %d spans, cursor %d", len(spans), cur)
	}
}

func TestSampleIPDeterministicAndProportional(t *testing.T) {
	tr := New(Config{})
	tr2 := New(Config{})
	n := 0
	for ip := uint64(0); ip < 20000; ip++ {
		a, b := tr.SampleIP(ip), tr2.SampleIP(ip)
		if a != b {
			t.Fatalf("sampling not deterministic at ip %d", ip)
		}
		if a {
			n++
		}
	}
	// 1% (200) ± generous slack.
	if n < 100 || n > 300 {
		t.Errorf("sampled %d of 20000 at %d per-mille", n, samplePerMille)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("round", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("probe", root, Int("w", w))
				sp.SetAttr(Int("i", i))
				tr.Active()
				sp.End()
			}
		}(w)
	}
	// A cursor reader takes spans while they complete, as a worker's
	// submissions do; every span reaches it exactly once.
	stop := make(chan struct{})
	taken := make(chan int)
	go func() {
		var n int
		var cur int64
		for {
			spans, next := tr.CompletedSince(cur)
			n, cur = n+len(spans), next
			select {
			case <-stop:
				spans, _ = tr.CompletedSince(cur)
				taken <- n + len(spans)
				return
			default:
			}
		}
	}()
	wg.Wait()
	root.End()
	close(stop)
	if got := tr.Completed(); got != 8*200+1 {
		t.Fatalf("completed = %d", got)
	}
	if got := <-taken; got != 8*200+1 {
		t.Errorf("cursor took %d spans, want %d", got, 8*200+1)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{Journal: j})

	root := tr.Start("round", nil, Int("round", 0), Int("day", 0))
	scan := tr.Start("scan", root)
	probe := tr.Start("probe", scan, String("ip", "54.0.0.1"), String("region", "east"))
	probe.SetAttr(Bool("fault.dial_loss", true))
	probe.End()
	scan.End()
	fetch := tr.Start("fetch", root)
	fetch.End()
	root.SetAttr(Bool("degraded", false))
	root.End()
	fin := tr.Start("store.finalize", nil, Int("round", 0), Int64("records", 17))
	fin.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	spans, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 5 {
		t.Fatalf("journal has %d spans, want 5", len(spans))
	}
	bds := BreakdownRounds(spans)
	if len(bds) != 1 {
		t.Fatalf("breakdowns = %d", len(bds))
	}
	b := bds[0]
	if b.Round != 0 || b.Degraded {
		t.Errorf("breakdown header = %+v", b)
	}
	for _, stage := range []string{"scan", "fetch", "store.finalize"} {
		if _, ok := b.Stages[stage]; !ok {
			t.Errorf("stage %q missing from breakdown (have %v)", stage, b.Stages)
		}
	}
	// round-tagged orphan + subtree: scan, probe, fetch, store.finalize.
	if b.Spans != 4 {
		t.Errorf("round subtree spans = %d, want 4", b.Spans)
	}
	if b.FaultInjected != 1 {
		t.Errorf("fault-injected spans = %d, want 1", b.FaultInjected)
	}
	if len(b.Slowest) != 1 || b.Slowest[0].Name != "probe" || !b.Slowest[0].FaultInjected() {
		t.Errorf("slowest = %+v", b.Slowest)
	}
}

func TestJournalCrashSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{Journal: j})
	for i := 0; i < 3; i++ {
		tr.Start("op", nil, Int("i", i)).End()
	}
	// Simulate a crash: flush the buffer but never Close/rename, then
	// truncate mid-line as a kill would.
	j.bw.Flush()
	if _, err := j.f.Write([]byte(`{"id":99,"name":"trunc`)); err != nil {
		t.Fatal(err)
	}
	j.bw.Flush()

	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("journal renamed into place before Close")
	}
	spans, err := LoadJournal(path) // falls back to .tmp
	if err != nil {
		t.Fatalf("post-mortem load: %v", err)
	}
	if len(spans) != 3 {
		t.Fatalf("recovered %d spans, want 3 (truncated line skipped)", len(spans))
	}
}

func TestReadJournalRejectsMidFileCorruption(t *testing.T) {
	in := `{"id":1,"name":"a","start_ns":1,"dur_ns":1}
not json at all
{"id":2,"name":"b","start_ns":2,"dur_ns":1}
`
	if _, err := ReadJournal(strings.NewReader(in)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestTimedSpanDurations(t *testing.T) {
	tr := New(Config{})
	sp := tr.Start("op", nil)
	time.Sleep(10 * time.Millisecond)
	sp.End()
	s := tr.Slowest(1)[0]
	if s.Duration() < 5*time.Millisecond {
		t.Errorf("duration %v implausibly short", s.Duration())
	}
	if s.Active {
		t.Error("completed span marked active")
	}
}

func TestTracerRecordAndReserveIDs(t *testing.T) {
	var journal strings.Builder
	tr := New(Config{Journal: &journal})
	local := tr.Start("round", nil)

	base := tr.ReserveIDs(3)
	if base == 0 {
		t.Fatal("ReserveIDs returned 0")
	}
	if base <= local.ID() {
		t.Fatalf("reserved base %d collides with live span %d", base, local.ID())
	}
	next := tr.Start("after", nil)
	if next.ID() >= base && next.ID() < base+3 {
		t.Fatalf("later span id %d landed inside reserved range [%d,%d)", next.ID(), base, base+3)
	}

	foreign := []SpanSnapshot{
		{ID: base, Name: "scan", StartNS: 1, DurNS: 100, Attrs: map[string]string{"worker": "w0"}},
		{ID: base + 1, Parent: base, Name: "probe", StartNS: 2, DurNS: 50, Active: true},
	}
	tr.Record(foreign...)
	if got := tr.Completed(); got != 2 {
		t.Errorf("completed = %d, want 2 recorded spans", got)
	}
	spans, err := ReadJournal(strings.NewReader(journal.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("journal received %d spans, want 2", len(spans))
	}
	if spans[1].Active {
		t.Error("Record left a span marked active")
	}
	if spans[0].Attr("worker") != "w0" {
		t.Errorf("attrs lost: %+v", spans[0].Attrs)
	}
	// Recorded spans appear in Slowest like native ones.
	slow := tr.Slowest(1)
	if len(slow) != 1 || slow[0].Name != "scan" {
		t.Errorf("slowest = %+v, want the recorded scan span", slow)
	}

	var nilTr *Tracer
	if nilTr.ReserveIDs(5) != 0 {
		t.Error("nil tracer reserved ids")
	}
	nilTr.Record(SpanSnapshot{ID: 1})
	if tr.ReserveIDs(0) != 0 {
		t.Error("ReserveIDs(0) must return 0")
	}
	local.End()
	next.End()
}
