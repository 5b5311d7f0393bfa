package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func sampleResult(name string, scale float64) *workloadResult {
	res := &workloadResult{Workload: name, Repeats: 3, Metrics: map[string]metricValue{}, Attempted: 26}
	for i, def := range endToEndDefs {
		res.Metrics[def.Name] = metricValue{Value: scale * float64(i+1) * 1.25, Unit: def.Unit, N: 3, Spread: 0.02}
	}
	return res
}

func TestDocumentJSONRoundTrip(t *testing.T) {
	first := []*workloadResult{sampleResult("campaign-local", 1), sampleResult("analyse", 3)}
	first[1].Extra = map[string]metricValue{"cluster_s": {Value: 0.17, Unit: "s", N: 14, Spread: 0.3}}
	first[1].Failures = []string{"pass 3: boom"}
	first[1].Failed = 1
	doc := &document{
		Env:       currentEnvironment(),
		Seed:      42,
		Seconds:   10,
		Workloads: first,
		Layers: &layersResult{Metrics: map[string]metricValue{"scanner.scan_s": {Value: 0.13, Unit: "s", N: 1}},
			Spans: 16463, SpansPath: "spans.jsonl", Attempted: 4172},
		Selfcheck: compareSets(first, []*workloadResult{sampleResult("campaign-local", 1.01), sampleResult("analyse", 3)}),
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back document
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, doc) {
		t.Errorf("document changed across JSON:\n got %+v\nwant %+v", back, *doc)
	}
}

func TestContractLineShape(t *testing.T) {
	res := sampleResult("store-mixed", 2)
	var buf bytes.Buffer
	if err := writeJSONLine(&buf, toContract(res.Attempted, res.Failed, res.Metrics)); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 || buf.Bytes()[buf.Len()-1] != '\n' {
		t.Fatalf("contract output is not one line: %q", buf.String())
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if got := keys(line); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("contract line keys = %v", got)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEndDefs) {
		t.Errorf("contract line carries %d metrics, want every one of %d", len(metrics), len(endToEndDefs))
	}
	for _, def := range endToEndDefs {
		if got := keys(metrics[def.Name]); !reflect.DeepEqual(got, []string{"unit", "value"}) {
			t.Errorf("metric %s keys = %v", def.Name, got)
		}
	}
	if string(line["correct"]) != "true" {
		t.Errorf("correct = %s with no failures", line["correct"])
	}
	res.Failed = 2
	if toContract(res.Attempted, res.Failed, res.Metrics).Correct {
		t.Error("correct stayed true with failed operations")
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestCompareSetsHoldsMediansToBounds(t *testing.T) {
	first := []*workloadResult{sampleResult("campaign-local", 1)}
	if sc := compareSets(first, []*workloadResult{sampleResult("campaign-local", 1.10)}); !sc.Passed {
		t.Errorf("a 10%% drift failed the selfcheck: %+v", sc.Diffs)
	}
	// A 22% drift, in either direction, trips exactly the metrics whose
	// bound is below it.
	for _, scale := range []float64{1.22, 0.78} {
		sc := compareSets(first, []*workloadResult{sampleResult("campaign-local", scale)})
		if sc.Passed {
			t.Errorf("a %.0f%% drift passed the selfcheck", (scale-1)*100)
		}
		if len(sc.Diffs) != len(endToEndDefs) {
			t.Fatalf("%d diffs for %d metrics", len(sc.Diffs), len(endToEndDefs))
		}
		for i, d := range sc.Diffs {
			def := endToEndDefs[i]
			if d.Metric != def.Name || d.Bound != def.Bound || d.Within != (def.Bound >= 0.22) {
				t.Errorf("%s: drift %.3f against bound %.2f read as within=%v", d.Metric, d.Diff, d.Bound, d.Within)
			}
		}
	}
}

func TestMedianOfRuns(t *testing.T) {
	one := sampleResult("analyse", 1)
	if medianOfRuns([]*workloadResult{one}) != one {
		t.Error("a single run was not returned as it is")
	}
	runs := []*workloadResult{sampleResult("analyse", 3), sampleResult("analyse", 1), sampleResult("analyse", 2)}
	runs[1].Failed, runs[1].Failures = 1, []string{"boom"}
	got := medianOfRuns(runs)
	want := sampleResult("analyse", 2)
	for name, m := range want.Metrics {
		g := got.Metrics[name]
		if g.Value != m.Value || g.Unit != m.Unit || g.N != 3 || g.Spread != 1 {
			t.Errorf("%s = %+v, want the middle run's %v over n=3 with spread (3-1)/2", name, g, m.Value)
		}
	}
	if got.Attempted != 3*want.Attempted || got.Failed != 1 || len(got.Failures) != 1 || got.Repeats != 9 {
		t.Errorf("checks not summed: %+v", got)
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables this
// program reports from, and to the limits the contract sets on it.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n json %+v\ntable %+v", manifest.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n json %+v\ntable %+v", manifest.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\n json %+v\ntable %+v", manifest.PerLayer, perLayerDefs)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", manifest.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", manifest.Paths)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("name %q is empty, too long or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEndDefs {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0,0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(append([]metricDef(nil), perLayerDefs...), extraDefs...) {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer or extra metric carries a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if m.Unit == "" || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}
