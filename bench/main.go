// Command bench is the repository's benchmark: four workloads
// (campaign-local, campaign-fleet, store-mixed, analyse) reporting one
// set of end-to-end metrics, and a separate traced pass that attributes
// time to layers from outside, by timing calls into their public
// functions. BENCHMARK.json at the repository root declares it;
// README.md in this directory explains every workload and metric.
//
//	go run ./bench -seed 1                         # all four workloads
//	go run ./bench -seed 1 -workload store-mixed   # one workload, then the contract line
//	go run ./bench -seed 1 -trace 1                # the traced per-layer pass
//	go run ./bench -seed 1 -selfcheck 3 -out bench/baseline.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all four)")
		seed      = flag.Int64("seed", 1, "drives the cloud seed, the synthetic-record generator and the lookup key streams")
		seconds   = flag.Float64("seconds", defaultSeconds, "timed work to measure per workload")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end runs")
		out       = flag.String("out", "", "also write the results as JSON to this file")
		selfcheck = flag.Int("selfcheck", 0, "run the end-to-end set 2N times, alternately for side A and side B of the same code, and fail if any metric's two medians differ by more than its bound")
		workdir   = flag.String("workdir", filepath.Join(".bench_build", "whowas-bench"), "scratch directory for stores, child output and the span file")
		child     = flag.String("child", "", "internal: run one repeat of this workload in this process")
		spans     = flag.String("spans", "", "internal: where the traced child writes its spans")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := 0
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds <= 0 || *trace < 0 || *trace > 1 || *selfcheck < 0:
		err = fmt.Errorf("-seconds must be positive, -trace 0 or 1, -selfcheck not negative")
	case *child == "layers":
		var rep *layerReport
		if rep, err = runLayers(ctx, *seed, *workdir, *spans); err == nil {
			err = writeJSONLine(os.Stdout, rep)
		}
	case *child != "":
		var rep *childReport
		if rep, err = runChild(ctx, *child, *seed, *seconds, *workdir); err == nil {
			err = writeJSONLine(os.Stdout, rep)
		}
	default:
		d := &driver{seed: *seed, seconds: *seconds, workdir: *workdir, stdout: os.Stdout}
		var ok bool
		if ok, err = d.run(ctx, *workload, *trace == 1, *selfcheck, *out); err == nil && !ok {
			code = 1
		}
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 2
	}
	os.Exit(code)
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// metricValue is one reported number: the median of N pooled samples
// and their (max-min)/median spread.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

// workloadResult is one workload's end-to-end outcome.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Repeats   int                    `json:"repeats"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extra     map[string]metricValue `json:"extra,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
}

// layersResult is the traced pass's outcome.
type layersResult struct {
	Metrics   map[string]metricValue `json:"metrics"`
	Spans     int                    `json:"spans"`
	SpansPath string                 `json:"spans_path"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
}

// contractLine is the last line of standard output in single-workload
// mode, exactly as the benchmark contract words it.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toContract(attempted, failed int, metrics map[string]metricValue) contractLine {
	line := contractLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]contractMetric{}}
	for name, m := range metrics {
		line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return line
}

// environment is recorded with every written result.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
}

func currentEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// document is the -out file.
type document struct {
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads,omitempty"`
	Layers    *layersResult     `json:"layers,omitempty"`
	Selfcheck *selfcheckResult  `json:"selfcheck,omitempty"`
}

// selfcheckResult is the acceptance run: the same code measured as two
// sides in alternating order, so host drift falls on both alike. The
// document's workloads are side A's medians, Second side B's.
type selfcheckResult struct {
	Pairs  int               `json:"pairs"`
	Second []*workloadResult `json:"second"`
	Diffs  []selfcheckDiff   `json:"diffs"`
	Passed bool              `json:"passed"`
}

type selfcheckDiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Diff     float64 `json:"diff"` // |second-first| / first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// driver runs workloads as child processes of this binary and reports.
type driver struct {
	seed    int64
	seconds float64
	workdir string
	stdout  io.Writer
}

// run returns false when a correctness check or the selfcheck failed.
func (d *driver) run(ctx context.Context, workload string, traced bool, selfcheck int, out string) (bool, error) {
	names := []string{workload}
	if workload == "" {
		names = nil
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else if !knownWorkload(workload) {
		return false, fmt.Errorf("unknown workload %q", workload)
	}
	if err := os.MkdirAll(d.workdir, 0o755); err != nil {
		return false, err
	}
	runDir, err := os.MkdirTemp(d.workdir, "run-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(runDir)
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}

	env := currentEnvironment()
	fmt.Fprintf(d.stdout, "# whowas bench: seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		d.seed, d.seconds, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	doc := &document{Env: env, Seed: d.seed, Seconds: d.seconds}
	ok := true
	var line contractLine
	if traced {
		res, err := d.runLayers(ctx, exe, runDir)
		if err != nil {
			return false, err
		}
		doc.Layers = res
		ok = res.Failed == 0
		line = toContract(res.Attempted, res.Failed, res.Metrics)
	} else {
		first, second, err := d.runEndToEnd(ctx, exe, runDir, names, selfcheck)
		if err != nil {
			return false, err
		}
		doc.Workloads = first
		if selfcheck > 0 {
			doc.Selfcheck = compareSets(first, second)
			doc.Selfcheck.Pairs = selfcheck
			d.printSelfcheck(doc.Selfcheck)
			ok = doc.Selfcheck.Passed
		}
		for _, res := range append(first[:len(first):len(first)], second...) {
			ok = ok && res.Failed == 0
		}
		last := first[len(first)-1]
		line = toContract(last.Attempted, last.Failed, last.Metrics)
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	// One named workload (or the traced pass) ends with the contract's
	// line; the all-workloads table has no single line to end with.
	if workload != "" || traced {
		if err := writeJSONLine(d.stdout, line); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runEndToEnd runs each workload once, or 2N times for the selfcheck
// with sides A and B taking turns going first (A B B A A B ...), so that
// the two sides of a workload sit next to each other in time. It returns
// one result per workload and side; second is empty without a selfcheck.
func (d *driver) runEndToEnd(ctx context.Context, exe, runDir string, names []string, selfcheck int) (first, second []*workloadResult, err error) {
	for _, name := range names {
		var runs [2][]*workloadResult
		for i := 0; i < max(1, 2*selfcheck); i++ {
			res, err := d.runWorkload(ctx, exe, runDir, name)
			if err != nil {
				return nil, nil, err
			}
			d.printWorkload(res)
			side := (i + i/2) % 2
			runs[side] = append(runs[side], res)
		}
		first = append(first, medianOfRuns(runs[0]))
		if selfcheck > 0 {
			second = append(second, medianOfRuns(runs[1]))
		}
	}
	return first, second, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// spawn runs one child of this binary to completion and decodes the
// JSON line it prints. The child's stderr passes through.
func (d *driver) spawn(ctx context.Context, exe, runDir string, v any, args ...string) error {
	args = append(args, "-seed", strconv.FormatInt(d.seed, 10),
		"-seconds", strconv.FormatFloat(d.seconds, 'g', -1, 64), "-workdir", runDir)
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args[:2], err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), v); err != nil {
		return fmt.Errorf("child %v: decoding its report: %w", args[:2], err)
	}
	return nil
}

// repeats reports whether a workload's child does one fixed piece of
// work that the driver repeats until --seconds is measured; the others
// time-box their own phases in a single child.
func repeats(workload string) bool {
	return workload == "campaign-local" || workload == "campaign-fleet"
}

// runWorkload runs a workload's children, pools their samples and takes
// medians. Children of one seed must agree on what they produced.
func (d *driver) runWorkload(ctx context.Context, exe, runDir, name string) (*workloadResult, error) {
	res := &workloadResult{Workload: name, Metrics: map[string]metricValue{}, Extra: map[string]metricValue{}}
	pooled := map[string][]float64{}
	var first *childReport
	for timed := 0.0; res.Repeats == 0 || (repeats(name) && timed < d.seconds); {
		rep := &childReport{}
		if err := d.spawn(ctx, exe, runDir, rep, "-child", name); err != nil {
			return nil, err
		}
		res.Repeats++
		timed += rep.TimedS
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		res.Failures = append(res.Failures, rep.Failures...)
		for metric, xs := range rep.Samples {
			pooled[metric] = append(pooled[metric], xs...)
		}
		if first == nil {
			first = rep
			continue
		}
		res.Attempted++
		if rep.Records != first.Records || rep.Probed != first.Probed || rep.Digest != first.Digest {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("repeat %d produced records=%d probed=%d digest=%s, repeat 1 records=%d probed=%d digest=%s",
				res.Repeats, rep.Records, rep.Probed, rep.Digest, first.Records, first.Probed, first.Digest))
		}
	}
	for _, def := range endToEndDefs {
		xs := pooled[def.Name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("%s reported no %s samples", name, def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: median(xs), Unit: def.Unit, N: len(xs), Spread: spread(xs)}
	}
	for _, def := range extraDefs {
		if xs := pooled[def.Name]; len(xs) > 0 {
			res.Extra[def.Name] = metricValue{Value: median(xs), Unit: def.Unit, N: len(xs), Spread: spread(xs)}
		}
	}
	return res, nil
}

func (d *driver) runLayers(ctx context.Context, exe, runDir string) (*layersResult, error) {
	spansPath := filepath.Join(d.workdir, fmt.Sprintf("spans-seed%d.jsonl", d.seed))
	rep := &layerReport{}
	if err := d.spawn(ctx, exe, runDir, rep, "-child", "layers", "-spans", spansPath); err != nil {
		return nil, err
	}
	res := &layersResult{Metrics: map[string]metricValue{}, Spans: rep.Spans, SpansPath: rep.SpansPath,
		Attempted: rep.Attempted, Failed: rep.Failed, Failures: rep.Failures}
	fmt.Fprintf(d.stdout, "# traced pass: %d spans in %s\n", rep.Spans, rep.SpansPath)
	for _, def := range perLayerDefs {
		v, ok := rep.Metrics[def.Name]
		if !ok {
			return nil, fmt.Errorf("traced pass reported no %s", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit, N: 1}
		fmt.Fprintf(d.stdout, "layers %s %.6g %s\n", def.Name, v, def.Unit)
	}
	d.printFailures("layers", res.Attempted, res.Failed, res.Failures)
	return res, nil
}

func (d *driver) printWorkload(res *workloadResult) {
	print := func(defs []metricDef, from map[string]metricValue) {
		for _, def := range defs {
			if m, ok := from[def.Name]; ok {
				fmt.Fprintf(d.stdout, "%s %s %.6g %s n=%d spread=%.3f\n", res.Workload, def.Name, m.Value, m.Unit, m.N, m.Spread)
			}
		}
	}
	print(endToEndDefs, res.Metrics)
	print(extraDefs, res.Extra)
	d.printFailures(res.Workload, res.Attempted, res.Failed, res.Failures)
}

func (d *driver) printFailures(who string, attempted, failed int, failures []string) {
	fmt.Fprintf(d.stdout, "%s ops_failed_share %.6g ratio n=%d\n", who, float64(failed)/math.Max(1, float64(attempted)), attempted)
	for _, f := range failures {
		fmt.Fprintf(d.stdout, "%s FAILED %s\n", who, f)
	}
}

// medianOfRuns folds repeated runs of one workload into one result:
// each metric's median over the runs, with the runs' spread, and the
// checks of all runs summed.
func medianOfRuns(runs []*workloadResult) *workloadResult {
	if len(runs) == 1 {
		return runs[0]
	}
	res := &workloadResult{Workload: runs[0].Workload, Metrics: map[string]metricValue{}, Extra: map[string]metricValue{}}
	fold := func(into map[string]metricValue, pick func(*workloadResult) map[string]metricValue) {
		for name, m := range pick(runs[0]) {
			var xs []float64
			for _, run := range runs {
				if v, ok := pick(run)[name]; ok {
					xs = append(xs, v.Value)
				}
			}
			into[name] = metricValue{Value: median(xs), Unit: m.Unit, N: len(xs), Spread: spread(xs)}
		}
	}
	fold(res.Metrics, func(r *workloadResult) map[string]metricValue { return r.Metrics })
	fold(res.Extra, func(r *workloadResult) map[string]metricValue { return r.Extra })
	for _, run := range runs {
		res.Repeats += run.Repeats
		res.Attempted += run.Attempted
		res.Failed += run.Failed
		res.Failures = append(res.Failures, run.Failures...)
	}
	return res
}

// compareSets holds the second set's medians to the first's within
// each metric's bound, in both directions.
func compareSets(first, second []*workloadResult) *selfcheckResult {
	out := &selfcheckResult{Second: second, Passed: true}
	for i, a := range first {
		b := second[i]
		for _, def := range endToEndDefs {
			x, y := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
			diff := math.Abs(worsening(x, y, def.higherIsBetter()))
			within := diff <= def.Bound
			out.Passed = out.Passed && within
			out.Diffs = append(out.Diffs, selfcheckDiff{a.Workload, def.Name, x, y, diff, def.Bound, within})
		}
	}
	sort.SliceStable(out.Diffs, func(i, j int) bool { return out.Diffs[i].Workload < out.Diffs[j].Workload })
	return out
}

func (d *driver) printSelfcheck(sc *selfcheckResult) {
	for _, diff := range sc.Diffs {
		verdict := "ok"
		if !diff.Within {
			verdict = "OUTSIDE BOUND"
		}
		fmt.Fprintf(d.stdout, "selfcheck %s %s first=%.6g second=%.6g diff=%.4f bound=%.2f %s\n",
			diff.Workload, diff.Metric, diff.First, diff.Second, diff.Diff, diff.Bound, verdict)
	}
}
