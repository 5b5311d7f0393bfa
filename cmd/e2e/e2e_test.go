// Package e2e is the exec-based CLI test harness: TestMain builds
// every binary under cmd/ once, and the tests run them as real
// processes — pipes, exit codes, SIGKILL — against temp dirs and
// ephemeral ports, asserting on the exact artifacts a user sees:
// store digests, exit codes, and JSON output.
//
// The suite skips under -short (it builds binaries and runs real
// campaigns); the full `go test ./...` tier runs it.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		dir, err := os.MkdirTemp("", "whowas-e2e-bin")
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		cmd := exec.Command("go", "build", "-o", dir, "./cmd/...")
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: building binaries: %v\n%s", err, out)
			os.Exit(1)
		}
		binDir = dir
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

func repoRoot() string {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		panic(err)
	}
	return root
}

func bin(name string) string { return filepath.Join(binDir, name) }

// runCLI executes one binary to completion and returns its combined
// output and exit code.
func runCLI(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin(name), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// proc is a long-running CLI process whose stdout/stderr are streamed
// line by line, for daemons and workers the tests must observe and
// kill mid-flight.
type proc struct {
	t     *testing.T
	name  string
	cmd   *exec.Cmd
	lines chan string

	mu  sync.Mutex
	out bytes.Buffer

	waitOnce sync.Once
	waitErr  error
}

func startProc(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, lines: make(chan string, 4096)}
	p.cmd = exec.Command(bin(name), args...)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = &stderrWriter{p: p}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			select {
			case p.lines <- line:
			default:
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			_ = p.cmd.Process.Kill()
			p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
		}
	})
	return p
}

type stderrWriter struct{ p *proc }

func (w *stderrWriter) Write(b []byte) (int, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	return w.p.out.Write(b)
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// awaitLine blocks until a stdout line containing substr appears.
func (p *proc) awaitLine(substr string, timeout time.Duration) string {
	p.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				p.t.Fatalf("%s exited before printing %q; output:\n%s", p.name, substr, p.output())
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			p.t.Fatalf("%s never printed %q; output so far:\n%s", p.name, substr, p.output())
		}
	}
}

// wait blocks until the process exits and returns its exit code.
func (p *proc) wait(timeout time.Duration) int {
	p.t.Helper()
	done := make(chan struct{})
	go func() {
		p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		p.t.Fatalf("%s did not exit in %s; output:\n%s", p.name, timeout, p.output())
	}
	if p.waitErr == nil {
		return 0
	}
	if ee, ok := p.waitErr.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	p.t.Fatalf("%s wait: %v", p.name, p.waitErr)
	return -1
}

// kill delivers SIGKILL — the chaos tests' worker death.
func (p *proc) kill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatalf("killing %s: %v", p.name, err)
	}
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
}

// digestFrom extracts the "store digest: <hex>" line a campaign CLI
// prints — the identity every gate in this suite compares.
func digestFrom(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if d, ok := strings.CutPrefix(line, "store digest: "); ok {
			if len(d) != 64 {
				t.Fatalf("malformed digest %q", d)
			}
			return d
		}
	}
	t.Fatalf("no store digest in output:\n%s", out)
	return ""
}

// e2eScale keeps the simulated clouds small enough for a CLI
// round-trip in seconds; all processes in one test must agree on it.
const e2eScale = "8192"

// TestCampaignAndQuery runs the single-process flow a user starts
// with: whowas collects a store, whowas-query answers questions over
// it, bad invocations fail loudly.
func TestCampaignAndQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite skipped in -short mode")
	}
	tmp := t.TempDir()
	storePath := filepath.Join(tmp, "ec2.whowas")
	metricsPath := filepath.Join(tmp, "metrics.json")

	out, code := runCLI(t, "whowas",
		"-cloud", "ec2", "-scale", e2eScale, "-seed", "7", "-rounds", "2",
		"-cluster=false", "-carto=false", "-q",
		"-out", storePath, "-metrics", metricsPath)
	if code != 0 {
		t.Fatalf("whowas exit %d:\n%s", code, out)
	}
	digest := digestFrom(t, out)
	t.Logf("campaign digest: %s", digest)
	if !strings.Contains(out, "campaign complete: 2 rounds collected") {
		t.Errorf("missing round count in output:\n%s", out)
	}

	var metrics map[string]any
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("-metrics output is not JSON: %v", err)
	}

	out, code = runCLI(t, "whowas-query", "-store", storePath, "-summary", "-census")
	if code != 0 {
		t.Fatalf("whowas-query exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "rounds=2") {
		t.Errorf("query summary missing round count:\n%s", out)
	}

	// -json exports one round as a JSON array of records, after the
	// store header line.
	out, code = runCLI(t, "whowas-query", "-store", storePath, "-json", "0")
	if code != 0 {
		t.Fatalf("whowas-query -json exit %d:\n%s", code, out)
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(out[strings.Index(out, "["):]), &records); err != nil {
		t.Fatalf("-json 0 output is not a JSON array: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("-json 0 exported no records")
	}
	if _, ok := records[0]["ip"]; !ok {
		t.Fatalf("-json 0 record 0 missing ip: %v", records[0])
	}

	// Misuse must exit non-zero: no store, missing store, no action.
	if out, code := runCLI(t, "whowas-query", "-summary"); code == 0 {
		t.Errorf("whowas-query without -store succeeded:\n%s", out)
	}
	if out, code := runCLI(t, "whowas-query", "-store", filepath.Join(tmp, "nope.whowas"), "-summary"); code == 0 {
		t.Errorf("whowas-query on a missing store succeeded:\n%s", out)
	}
	if out, code := runCLI(t, "whowas-query", "-store", storePath); code == 0 {
		t.Errorf("whowas-query with nothing to do succeeded:\n%s", out)
	}
	if out, code := runCLI(t, "whowas", "-cloud", "gcp"); code == 0 {
		t.Errorf("whowas with unknown cloud succeeded:\n%s", out)
	}
}

// TestQueryRefusesDamagedStore: whowas-query must refuse a store file
// whose round 0 records frame is damaged, exiting 1 with the
// corruption named, rather than reading it and hanging.
func TestQueryRefusesDamagedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite skipped in -short mode")
	}
	storePath := filepath.Join(t.TempDir(), "ec2.whowas")
	out, code := runCLI(t, "whowas",
		"-cloud", "ec2", "-scale", e2eScale, "-seed", "7", "-rounds", "2",
		"-cluster=false", "-carto=false", "-q", "-out", storePath)
	if code != 0 {
		t.Fatalf("whowas exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	// An 8-byte magic, then frames of a 4-byte big-endian length and
	// its payload: the header, round 0's meta, round 0's records.
	off := 8
	for range 2 {
		off += 4 + int(binary.BigEndian.Uint32(data[off:]))
	}
	copy(data[off+4:off+8], []byte{0xff, 0xff, 0xff, 0xff})
	if err := os.WriteFile(storePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p := startProc(t, "whowas-query", "-store", storePath, "-summary")
	if code := p.wait(30 * time.Second); code != 1 || !strings.Contains(p.output(), "corrupt") {
		t.Fatalf("whowas-query on a damaged store: exit %d, output:\n%s", code, p.output())
	}
}

// TestColumnarStoreCLI is the CLI face of the storage-engine
// refactor: the same seeded campaign run on the in-memory backend and
// on the columnar backend (-store-dir) must print the same digest and
// write byte-identical -out gobs, whowas-query must answer from a
// segment directory directly, and -to-dir must convert gob to
// columnar with the digest intact.
func TestColumnarStoreCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite skipped in -short mode")
	}
	tmp := t.TempDir()
	memOut := filepath.Join(tmp, "mem.whowas")
	colOut := filepath.Join(tmp, "col.whowas")
	colDir := filepath.Join(tmp, "colstore")

	campaign := []string{
		"-cloud", "ec2", "-scale", e2eScale, "-seed", "7", "-rounds", "2",
		"-cluster=false", "-carto=false", "-q",
	}
	out, code := runCLI(t, "whowas", append(campaign, "-out", memOut)...)
	if code != 0 {
		t.Fatalf("in-memory whowas exit %d:\n%s", code, out)
	}
	want := digestFrom(t, out)

	out, code = runCLI(t, "whowas", append(campaign, "-out", colOut, "-store-dir", colDir)...)
	if code != 0 {
		t.Fatalf("columnar whowas exit %d:\n%s", code, out)
	}
	if got := digestFrom(t, out); got != want {
		t.Errorf("columnar campaign digest %s != in-memory %s", got, want)
	}
	memBytes, err := os.ReadFile(memOut)
	if err != nil {
		t.Fatal(err)
	}
	colBytes, err := os.ReadFile(colOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBytes, colBytes) {
		t.Error("-out gobs from the two backends are not byte-identical")
	}
	segs, err := filepath.Glob(filepath.Join(colDir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Errorf("segment directory holds %d segments, want 2: %v", len(segs), segs)
	}

	// whowas-query opens the segment directory directly.
	out, code = runCLI(t, "whowas-query", "-store-dir", colDir, "-summary")
	if code != 0 {
		t.Fatalf("whowas-query -store-dir exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "cloud=ec2 rounds=2") {
		t.Errorf("columnar query missing store banner:\n%s", out)
	}
	out, code = runCLI(t, "whowas-query", "-store-dir", colDir, "-digest")
	if code != 0 {
		t.Fatalf("whowas-query -store-dir -digest exit %d:\n%s", code, out)
	}
	if got := digestFrom(t, out); got != want {
		t.Errorf("columnar directory digest %s != campaign digest %s", got, want)
	}

	// Gob -> columnar conversion preserves the digest.
	convDir := filepath.Join(tmp, "converted")
	if out, code := runCLI(t, "whowas-query", "-store", memOut, "-to-dir", convDir); code != 0 {
		t.Fatalf("whowas-query -to-dir exit %d:\n%s", code, out)
	}
	out, code = runCLI(t, "whowas-query", "-store-dir", convDir, "-digest")
	if code != 0 {
		t.Fatalf("whowas-query on converted dir exit %d:\n%s", code, out)
	}
	if got := digestFrom(t, out); got != want {
		t.Errorf("converted directory digest %s != campaign digest %s", got, want)
	}

	// Misuse fails loudly: both sources at once, a non-store directory,
	// converting onto a non-empty target.
	if out, code := runCLI(t, "whowas-query", "-store", memOut, "-store-dir", colDir, "-summary"); code == 0 {
		t.Errorf("whowas-query with both -store and -store-dir succeeded:\n%s", out)
	}
	if out, code := runCLI(t, "whowas-query", "-store-dir", tmp, "-summary"); code == 0 {
		t.Errorf("whowas-query on a non-store directory succeeded:\n%s", out)
	}
	if out, code := runCLI(t, "whowas-query", "-store", memOut, "-to-dir", colDir); code == 0 {
		t.Errorf("whowas-query -to-dir onto a non-empty store succeeded:\n%s", out)
	}
}

// TestQueryClusterAcrossBackends: -cluster prints the same report from
// a gob (-store) as from the segment directory it was collected on
// (-store-dir). The columnar scan reads round 1 ahead, into the spare
// buffer, while the fold runs on round 0, and round 2 into round 0's
// buffer once that fold returns, so a sample record kept from round 0
// without a copy would print round 2's fields.
func TestQueryClusterAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite skipped in -short mode")
	}
	tmp := t.TempDir()
	gob := filepath.Join(tmp, "ec2.whowas")
	dir := filepath.Join(tmp, "colstore")
	out, code := runCLI(t, "whowas",
		"-cloud", "ec2", "-scale", e2eScale, "-seed", "7", "-rounds", "3",
		"-carto=false", "-q", "-out", gob, "-store-dir", dir)
	if code != 0 {
		t.Fatalf("whowas exit %d:\n%s", code, out)
	}

	// Clusters of records spread over round 0, from its JSON export:
	// later rounds' churn shifts the records behind the first ones,
	// so round 2 decodes someone else into those slots.
	out, code = runCLI(t, "whowas-query", "-store", gob, "-json", "0")
	if code != 0 {
		t.Fatalf("whowas-query -json 0 exit %d:\n%s", code, out)
	}
	var records []struct {
		Cluster int64 `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(out[strings.Index(out, "["):]), &records); err != nil {
		t.Fatalf("-json 0 output is not a JSON array: %v", err)
	}
	var ids []int64
	seen := map[int64]bool{}
	for j := 0; j < 8; j++ {
		for _, rec := range records[j*len(records)/8:] {
			if id := rec.Cluster; id != 0 {
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
				break
			}
		}
	}
	if len(ids) == 0 {
		t.Fatal("round 0 holds no clustered record")
	}
	for _, id := range ids {
		arg := fmt.Sprint(id)
		fromGob, code := runCLI(t, "whowas-query", "-store", gob, "-cluster", arg)
		if code != 0 || !strings.Contains(fromGob, "title=") {
			t.Fatalf("whowas-query -store -cluster %s exit %d:\n%s", arg, code, fromGob)
		}
		fromDir, code := runCLI(t, "whowas-query", "-store-dir", dir, "-cluster", arg)
		if code != 0 {
			t.Fatalf("whowas-query -store-dir -cluster %s exit %d:\n%s", arg, code, fromDir)
		}
		if fromDir != fromGob {
			t.Errorf("-cluster %s differs by backend:\n-store:\n%s\n-store-dir:\n%s", arg, fromGob, fromDir)
		}
	}
}

// startCloudd boots the cloud daemon on ephemeral ports and waits for
// health via whowas-query cloud.
func startCloudd(t *testing.T) (p *proc, addr string) {
	t.Helper()
	p = startProc(t, "whowas-cloudd",
		"-cloud", "ec2", "-scale", e2eScale, "-seed", "7",
		"-addr", "127.0.0.1:0", "-data-listeners", "2")
	line := p.awaitLine("control plane on http://", 30*time.Second)
	addr = line[strings.Index(line, "http://")+len("http://"):]
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, code := runCLI(t, "whowas-query", "cloud", "-addr", addr); code == 0 {
			return p, addr
		}
		if time.Now().After(deadline) {
			t.Fatalf("cloudd at %s never became healthy", addr)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestCoordinatorFleet is the CLI half of the tentpole gate: the same
// seeded cloud measured single-process, then by a 1-worker fleet,
// then by a 2-worker fleet with one worker SIGKILLed mid-round — all
// three digests must be byte-identical. Along the way it drives the
// fleet observability surface: `whowas-query fleet` must show worker
// rows and (after the kill) the lease_expired history event, and the
// coordinator's merged -trace-journal must attribute worker spans.
func TestCoordinatorFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite skipped in -short mode")
	}
	cloudd, cloudAddr := startCloudd(t)
	defer cloudd.kill()

	// Reference: single-process campaign over the same daemon.
	out, code := runCLI(t, "whowas",
		"-cloud-addr", cloudAddr, "-rounds", "2",
		"-cluster=false", "-carto=false", "-q")
	if code != 0 {
		t.Fatalf("single-process whowas exit %d:\n%s", code, out)
	}
	want := digestFrom(t, out)

	// pollFleet one-shots `whowas-query fleet` against a live
	// coordinator until the dashboard contains every wanted substring
	// (worker rows and history events appear as heartbeats arrive).
	pollFleet := func(t *testing.T, coordAddr string, wants ...string) string {
		t.Helper()
		deadline := time.Now().Add(45 * time.Second)
		var last string
		for {
			out, code := runCLI(t, "whowas-query", "fleet", "-history", "64", coordAddr)
			if code == 0 {
				last = out
				ok := true
				for _, w := range wants {
					if !strings.Contains(out, w) {
						ok = false
						break
					}
				}
				if ok {
					return out
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet dashboard never showed %q; last output:\n%s", wants, last)
			}
			time.Sleep(150 * time.Millisecond)
		}
	}

	runFleet := func(t *testing.T, workers int, chaos bool) string {
		journal := filepath.Join(t.TempDir(), "journal.jsonl")
		metricsPath := filepath.Join(t.TempDir(), "metrics.json")
		coordArgs := []string{
			"-cloud-addr", cloudAddr, "-addr", "127.0.0.1:0",
			"-rounds", "2", "-trace-journal", journal, "-metrics", metricsPath,
		}
		if chaos {
			coordArgs = append(coordArgs, "-lease-ttl", "1s")
		}
		coord := startProc(t, "whowas-coordinator", coordArgs...)
		line := coord.awaitLine("coordinator listening on http://", 30*time.Second)
		coordAddr := line[strings.Index(line, "http://")+len("http://"):]
		coordAddr = coordAddr[:strings.Index(coordAddr, " ")]

		procs := make([]*proc, workers)
		for i := range procs {
			procs[i] = startProc(t, "whowas",
				"-worker", "-coordinator-addr", coordAddr,
				"-worker-id", fmt.Sprintf("e2e-w%d", i))
		}
		if chaos {
			// SIGKILL the first worker the moment it starts probing a
			// shard: no submit, no further heartbeats, no goodbye.
			procs[0].awaitLine("running round", time.Minute)
			procs[0].kill()
			t.Log("killed worker e2e-w0 mid-shard")
			// The dashboard must record the death while the campaign is
			// still running: an expired lease in the status history and
			// the survivor still reporting.
			out := pollFleet(t, coordAddr, "lease_expired", "e2e-w1")
			t.Logf("fleet dashboard after kill:\n%s", out)
		} else {
			// A healthy fleet shows a live worker row for each worker.
			pollFleet(t, coordAddr, "e2e-w0")
		}
		if code := coord.wait(3 * time.Minute); code != 0 {
			t.Fatalf("coordinator exit %d:\n%s", code, coord.output())
		}
		for i, p := range procs {
			if chaos && i == 0 {
				continue
			}
			if code := p.wait(time.Minute); code != 0 {
				t.Fatalf("worker %d exit %d:\n%s", i, code, p.output())
			}
		}

		// The merged journal reconstructs the distributed campaign:
		// round spans from the coordinator, worker shard spans stamped
		// with the identity that ran them.
		out, code := runCLI(t, "whowas-query", "trace", "-journal", journal, "-slowest", "8")
		if code != 0 {
			t.Fatalf("whowas-query trace on coordinator journal exit %d:\n%s", code, out)
		}
		if !strings.Contains(out, "worker=e2e-w") {
			t.Errorf("journal trace has no worker-attributed spans:\n%s", out)
		}
		if !strings.Contains(out, "round  0") && !strings.Contains(out, "round 0") {
			t.Errorf("journal trace missing round breakdown:\n%s", out)
		}
		// The coordinator ends through the same tail as whowas: one
		// progress line per round, scan time included, and a -metrics
		// document of the same shape.
		progress := 0
		for _, line := range strings.Split(coord.output(), "\n") {
			if strings.HasPrefix(line, "  round ") && strings.Contains(line, ", scan ") {
				progress++
			}
		}
		if progress != 2 {
			t.Errorf("%d progress lines with a scan time, want one per round (2):\n%s", progress, coord.output())
		}
		var report struct {
			Cloud   string           `json:"cloud"`
			Rounds  []map[string]any `json:"rounds"`
			Metrics map[string]any   `json:"metrics"`
		}
		raw, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatalf("coordinator -metrics is not JSON: %v", err)
		}
		if report.Cloud == "" || len(report.Rounds) != 2 || report.Metrics["counters"] == nil {
			t.Errorf("coordinator -metrics is not a campaign report (cloud, 2 rounds, metrics): %s", raw)
		}
		return digestFrom(t, coord.output())
	}

	t.Run("one-worker", func(t *testing.T) {
		if got := runFleet(t, 1, false); got != want {
			t.Errorf("1-worker digest %s != single-process %s", got, want)
		}
	})
	t.Run("two-workers-one-killed", func(t *testing.T) {
		if got := runFleet(t, 2, true); got != want {
			t.Errorf("chaos fleet digest %s != single-process %s", got, want)
		}
	})
}

// TestCoordinatorBadFlags covers the coordinator's failure exits.
func TestCoordinatorBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite skipped in -short mode")
	}
	if out, code := runCLI(t, "whowas-coordinator"); code == 0 {
		t.Errorf("coordinator without -cloud-addr succeeded:\n%s", out)
	}
	if out, code := runCLI(t, "whowas", "-worker"); code == 0 {
		t.Errorf("whowas -worker without -coordinator-addr succeeded:\n%s", out)
	}
	// A campaign flag beside -worker would be dropped (the coordinator
	// owns campaign settings): a usage error naming it, not a silent
	// start. The worker's own flags still start it.
	out, code := runCLI(t, "whowas", "-worker", "-coordinator-addr", "127.0.0.1:1", "-store-dir", "d")
	if code != 2 || !strings.Contains(out, "-store-dir") {
		t.Errorf("whowas -worker -store-dir: exit %d, want 2 naming -store-dir:\n%s", code, out)
	}
	w := startProc(t, "whowas", "-worker", "-coordinator-addr", "127.0.0.1:1", "-q")
	w.awaitLine("joining coordinator", 10*time.Second)
	w.kill()
}

// TestExperimentsCLI drives the figure generator: -only prints exactly
// the sections it names, -csv writes the figures' series, and what is
// not this command's to accept — an unknown experiment, a campaign
// flag that belongs to cmd/whowas — is a usage error before any
// campaign runs.
func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite skipped in -short mode")
	}
	csvDir := filepath.Join(t.TempDir(), "csv")
	cmd := exec.Command(bin("whowas-experiments"),
		"-ec2-scale", "2048", "-azure-scale", "512", "-q",
		"-only", "table3,accuracy", "-csv", csvDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("whowas-experiments: %v\n%s", err, stderr.String())
	}
	var sections []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			id, _, _ := strings.Cut(rest, " ")
			sections = append(sections, id)
		}
	}
	if strings.Join(sections, ",") != "table3,accuracy" {
		t.Errorf("-only table3,accuracy printed sections %v:\n%s", sections, stdout.String())
	}
	for _, want := range []string{"Table 3 (ec2)", "Table 3 (azure)", "Clustering accuracy (ec2)", "Clustering accuracy (azure)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("-q left progress on stderr:\n%s", stderr.String())
	}
	for _, stem := range []string{"figure8-ec2", "figure9-azure", "figure19-ec2"} {
		data, err := os.ReadFile(filepath.Join(csvDir, stem+".csv"))
		if err != nil || bytes.Count(data, []byte("\n")) < 2 {
			t.Errorf("-csv %s.csv: %v (%d bytes)", stem, err, len(data))
		}
	}

	out, code := runCLI(t, "whowas-experiments", "-only", "table3,tabel4")
	if code != 2 || !strings.Contains(out, `"tabel4"`) || !strings.Contains(out, "table4, ") {
		t.Errorf("unknown -only ID: exit %d, want 2 with the valid IDs listed:\n%s", code, out)
	}
	out, code = runCLI(t, "whowas-experiments", "-faults", "scenarios/chaos.json")
	if code != 2 || !strings.Contains(out, "flag provided but not defined: -faults") {
		t.Errorf("-faults: exit %d, want the flag package's usage error (2):\n%s", code, out)
	}
}
