package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"whowas/internal/core"
	"whowas/internal/metrics"
	"whowas/internal/trace"
)

// journalBuffer is a goroutine-safe in-memory trace journal. The
// tracer writes it under its own lock, but the test reads it while the
// shutdown path may still hold a reference, so lock anyway.
type journalBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (j *journalBuffer) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.buf.Write(p)
}

func (j *journalBuffer) Bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]byte(nil), j.buf.Bytes()...)
}

// TestFleetObservability runs a two-worker campaign with the full
// observability surface wired and asserts the tentpole contract: the
// fleet view aggregates per-worker metrics, the Prometheus exposition
// carries worker labels, the status history records the campaign's
// lifecycle, and the coordinator's merged trace journal attributes
// every worker span to its worker — parented under the round spans —
// so the distributed campaign reads like a single-process one.
func TestFleetObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed campaign skipped in -short mode")
	}
	clouddAddr := startCloudd(t)
	journal := &journalBuffer{}
	tracer := trace.New(trace.Config{Journal: journal})
	reg := metrics.NewRegistry()
	srv := runFleet(t, clouddAddr, Config{
		CloudAddr: clouddAddr,
		Rounds:    []int{0, 2},
		LeaseTTL:  5 * time.Second,
		Metrics:   reg,
		Tracer:    tracer,
	}, 2)

	// The contract is the HTTP surface, so assert through it.
	base := "http://" + srv.Addr()

	// --- /coord/fleet ---
	var fleet Fleet
	getJSON(t, base+"/coord/fleet", &fleet)
	if !fleet.Status.Done {
		t.Errorf("fleet status not done: %+v", fleet.Status)
	}
	if len(fleet.Workers) != 2 {
		t.Fatalf("fleet workers = %d, want 2", len(fleet.Workers))
	}
	var probeSum int64
	for i, wv := range fleet.Workers {
		if want := fmt.Sprintf("w%d", i); wv.Worker != want {
			t.Errorf("worker row %d is %q, want %q", i, wv.Worker, want)
		}
		if wv.Probes <= 0 {
			t.Errorf("worker %s reported no probes", wv.Worker)
		}
		probeSum += wv.Probes
	}
	if got := fleet.Fleet.Counters["scanner.probes"]; got != probeSum {
		t.Errorf("fleet merged probes = %d, want sum of workers %d", got, probeSum)
	}
	if fleet.HistoryTotal <= 0 || len(fleet.History) == 0 {
		t.Fatalf("history empty: total=%d len=%d", fleet.HistoryTotal, len(fleet.History))
	}
	events := map[string]int{}
	for _, rec := range fleet.History {
		events[rec.Event]++
	}
	for _, want := range []string{"register", "round_begin", "submit", "round_end", "campaign_done"} {
		if events[want] == 0 {
			t.Errorf("history missing %q events (got %v)", want, events)
		}
	}
	// Two rounds, two shards each: four accepted submissions.
	if events["submit"] != 4 {
		t.Errorf("history submit events = %d, want 4", events["submit"])
	}

	// --- /metrics/prom: worker-labeled fleet exposition ---
	prom := getBody(t, base+"/metrics/prom")
	for _, want := range []string{
		`whowas_coord_rounds_total 2`,
		`whowas_scanner_probes_total{worker="w0"}`,
		`whowas_scanner_probes_total{worker="w1"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
	// One TYPE declaration per metric name, no matter how many series.
	if n := strings.Count(prom, "# TYPE whowas_scanner_probes_total "); n != 1 {
		t.Errorf("TYPE whowas_scanner_probes_total declared %d times, want 1", n)
	}

	// --- merged trace journal: worker attribution under round spans ---
	spans := decodeJournal(t, journal.Bytes())
	byID := make(map[uint64]trace.SpanSnapshot, len(spans))
	rounds := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "round" {
			rounds++
		}
	}
	if rounds != 2 {
		t.Errorf("journal has %d round spans, want 2", rounds)
	}
	workerSpans := 0
	seenWorkers := map[string]bool{}
	for _, s := range spans {
		wid := s.Attrs["worker"]
		if wid == "" {
			continue
		}
		workerSpans++
		seenWorkers[wid] = true
		if s.Attrs["round"] == "" || s.Attrs["shard"] == "" {
			t.Errorf("span %q missing round/shard stamp: %v", s.Name, s.Attrs)
		}
		parent, ok := byID[s.Parent]
		for ok && parent.Name != "round" {
			parent, ok = byID[parent.Parent]
		}
		if !ok {
			t.Errorf("span %q (worker %s) does not resolve to a round span", s.Name, wid)
		}
	}
	if workerSpans == 0 {
		t.Fatal("journal has no worker-attributed spans")
	}
	if !seenWorkers["w0"] || !seenWorkers["w1"] {
		t.Errorf("journal attributes spans to %v, want both w0 and w1", seenWorkers)
	}
	// The merged spans join the ring too, so /trace/slowest sees them.
	stamped := false
	for _, s := range tracer.Slowest(100) {
		if s.Attrs["worker"] != "" {
			stamped = true
			break
		}
	}
	if !stamped {
		t.Error("no worker-stamped span in the coordinator tracer's ring")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// decodeJournal parses a JSONL trace journal.
func decodeJournal(t *testing.T, data []byte) []trace.SpanSnapshot {
	t.Helper()
	var out []trace.SpanSnapshot
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var s trace.SpanSnapshot
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		out = append(out, s)
	}
	return out
}

// TestWorkerSubmitRequest: a submission carries the worker's metrics
// snapshot and exactly the spans completed since the previous one.
func TestWorkerSubmitRequest(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("scanner.probes").Add(42)
	w, err := NewWorker(WorkerConfig{Coordinator: "127.0.0.1:1", ID: "w0", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Tracer().Start("scan", nil).End()

	a := Assignment{State: StateRun, Round: 2, Shard: 1}
	req := w.submitRequest(a, &core.ShardResult{})
	if req.Worker != "w0" || req.Round != 2 || req.Shard != 1 {
		t.Errorf("request header = %q round %d shard %d", req.Worker, req.Round, req.Shard)
	}
	if req.Metrics.Counters["scanner.probes"] != 42 {
		t.Errorf("metrics not snapshotted: %+v", req.Metrics)
	}
	if len(req.Spans) != 1 || req.Spans[0].Name != "scan" {
		t.Errorf("spans = %+v", req.Spans)
	}
	w.Tracer().Start("fetch", nil).End()
	if req := w.submitRequest(a, &core.ShardResult{}); len(req.Spans) != 1 || req.Spans[0].Name != "fetch" {
		t.Errorf("second submission spans = %+v, want only the new one", req.Spans)
	}

	// A worker without a registry submits an empty snapshot.
	bare, err := NewWorker(WorkerConfig{Coordinator: "127.0.0.1:1", ID: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if req := bare.submitRequest(a, &core.ShardResult{}); req.Metrics.Counters != nil || req.Spans != nil {
		t.Errorf("submission without sources not empty: %+v", req)
	}
}

func TestRestampSpans(t *testing.T) {
	in := []trace.SpanSnapshot{
		{ID: 3, Name: "scan", Attrs: map[string]string{"regions": "r1"}},
		{ID: 4, Parent: 3, Name: "probe"},
		{ID: 9, Parent: 77, Name: "orphan"}, // parent outside the batch
	}
	out := restampSpans(in, 100, 50, "w0", 2, 1)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].ID != 100 || out[1].ID != 101 || out[2].ID != 102 {
		t.Errorf("ids not renumbered: %d %d %d", out[0].ID, out[1].ID, out[2].ID)
	}
	if out[0].Parent != 50 {
		t.Errorf("root span not parented onto round: %d", out[0].Parent)
	}
	if out[1].Parent != 100 {
		t.Errorf("in-batch parent not remapped: %d", out[1].Parent)
	}
	if out[2].Parent != 50 {
		t.Errorf("dangling parent not reparented onto round: %d", out[2].Parent)
	}
	for i, s := range out {
		if s.Attrs["worker"] != "w0" || s.Attrs["round"] != "2" || s.Attrs["shard"] != "1" {
			t.Errorf("span %d missing stamp: %+v", i, s.Attrs)
		}
	}
	if out[0].Attrs["regions"] != "r1" {
		t.Errorf("original attrs lost: %+v", out[0].Attrs)
	}
	// Input untouched.
	if in[0].ID != 3 || in[0].Attrs["worker"] != "" {
		t.Errorf("input mutated: %+v", in[0])
	}
}

func snapshotWith(probes int64) metrics.Snapshot {
	r := metrics.NewRegistry()
	r.Counter("scanner.probes").Add(probes)
	r.Counter("scanner.responsive_ips").Add(probes / 2)
	r.Counter("fetcher.pages").Add(probes / 4)
	return r.Snapshot()
}

func newFleetState() *fleetState {
	return &fleetState{workers: make(map[string]*workerState)}
}

func TestFleetRatesAndView(t *testing.T) {
	f := newFleetState()
	t0 := time.Unix(1000, 0)
	f.observe("w0", snapshotWith(100), nil, t0)
	f.observe("w1", snapshotWith(0), nil, t0)
	// One second later w0 probed 50 more and submitted spans; w1 sat
	// idle.
	var spans []trace.SpanSnapshot
	for i := 1; i <= slowestN+2; i++ {
		spans = append(spans, trace.SpanSnapshot{ID: uint64(i), Name: "probe", DurNS: int64(i)})
	}
	f.observe("w0", snapshotWith(150), spans, t0.Add(time.Second))
	f.observe("w1", snapshotWith(0), nil, t0.Add(time.Second))

	st := Status{Leases: []LeaseState{{Worker: "w0", Rate: 200, ExpiresInMS: 900}}}
	view := f.view(t0.Add(2*time.Second), st)
	if len(view.Workers) != 2 {
		t.Fatalf("workers = %d", len(view.Workers))
	}
	w0 := view.Workers[0]
	if w0.Worker != "w0" {
		t.Fatalf("rows not sorted: %q first", w0.Worker)
	}
	if w0.ProbesPerSec < 49 || w0.ProbesPerSec > 51 {
		t.Errorf("w0 rate = %g, want ~50", w0.ProbesPerSec)
	}
	if w0.Probes != 150 || w0.Responsive != 75 {
		t.Errorf("w0 counters: %+v", w0)
	}
	if w0.Lease == nil || w0.Lease.Rate != 200 {
		t.Errorf("w0 lease missing: %+v", w0.Lease)
	}
	if view.Workers[1].Lease != nil {
		t.Error("w1 shows a lease it does not hold")
	}
	if w0.SeenAgoMS != 1000 {
		t.Errorf("seen ago = %dms, want 1000", w0.SeenAgoMS)
	}
	// The slowest window holds the slowestN longest submitted spans,
	// worst first; a heartbeat (no spans) leaves it alone.
	if len(w0.Slowest) != slowestN || w0.Slowest[0].DurNS != slowestN+2 || w0.Slowest[slowestN-1].DurNS != 3 {
		t.Errorf("w0 slowest = %+v", w0.Slowest)
	}
	if view.Workers[1].Slowest != nil {
		t.Errorf("w1 slowest = %+v, want none", view.Workers[1].Slowest)
	}
	if view.Fleet.Counters["scanner.probes"] != 150 {
		t.Errorf("fleet merge: %+v", view.Fleet.Counters)
	}
	if view.ProbesPerSec != w0.ProbesPerSec {
		t.Errorf("fleet rate %g != sum of worker rates", view.ProbesPerSec)
	}

	// Rows come in worker-ID order whatever order workers were first
	// seen in: nine workers, so a view that ranged over its map would
	// match this order about once in 9! runs.
	g := newFleetState()
	for _, id := range []string{"w5", "w2", "w8", "w0", "w7", "w3", "w6", "w1", "w4"} {
		g.observe(id, snapshotWith(1), nil, t0)
	}
	var order []string
	for _, w := range g.view(t0, Status{}).Workers {
		order = append(order, w.Worker)
	}
	if got := strings.Join(order, " "); got != "w0 w1 w2 w3 w4 w5 w6 w7 w8" {
		t.Errorf("row order %q, want sorted worker IDs", got)
	}

	// A counter that goes backwards (worker restart) must not produce
	// a negative rate.
	f.observe("w0", snapshotWith(10), nil, t0.Add(3*time.Second))
	view = f.view(t0.Add(3*time.Second), Status{})
	if view.Workers[0].ProbesPerSec != 0 {
		t.Errorf("restart rate = %g, want 0", view.Workers[0].ProbesPerSec)
	}
}

func TestHistoryRing(t *testing.T) {
	f := newFleetState()
	for i := 0; i < historyMax+2; i++ {
		f.record(Status{TimeMS: int64(i), Event: "submit", Round: i})
	}
	view := f.view(time.Now(), Status{})
	if view.HistoryTotal != historyMax+2 {
		t.Errorf("total = %d, want %d", view.HistoryTotal, historyMax+2)
	}
	if len(view.History) != historyMax {
		t.Fatalf("retained %d, want %d", len(view.History), historyMax)
	}
	for i, r := range view.History {
		if r.Round != i+2 {
			t.Fatalf("record %d is round %d, want %d (oldest-first tail)", i, r.Round, i+2)
		}
	}
}

func TestFleetIgnoresAnonymousReports(t *testing.T) {
	f := newFleetState()
	f.observe("", snapshotWith(1), nil, time.Now())
	if v := f.view(time.Now(), Status{}); len(v.Workers) != 0 {
		t.Errorf("anonymous report folded in: %+v", v.Workers)
	}
}
