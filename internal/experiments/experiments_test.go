package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// tinySuite runs the full experiment pipeline at a much-reduced scale,
// shared across the package's tests.
var (
	tinyOnce sync.Once
	tinyVal  *Suite
	tinyErr  error
)

func tinySuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	tinyOnce.Do(func() {
		tinyVal, tinyErr = Run(context.Background(), Options{EC2Scale: 1024, AzureScale: 256, Seed: 11})
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyVal
}

func TestOptionsDefaults(t *testing.T) {
	o := (&Options{}).withDefaults()
	if o.EC2Scale != 128 || o.AzureScale != 32 || o.Seed == 0 {
		t.Errorf("defaults = %+v", o)
	}
	t.Setenv("WHOWAS_SCALE", "4")
	o = (&Options{}).withDefaults()
	if o.EC2Scale != 512 || o.AzureScale != 128 {
		t.Errorf("WHOWAS_SCALE not applied: %+v", o)
	}
	t.Setenv("WHOWAS_SCALE", "junk")
	o = (&Options{}).withDefaults()
	if o.EC2Scale != 128 {
		t.Errorf("junk WHOWAS_SCALE changed scale: %+v", o)
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	s := tinySuite(t)
	all, err := s.All(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 25 {
		t.Errorf("experiment count = %d, want 25", len(all))
	}
	seen := map[string]bool{}
	for i, exp := range all {
		if exp.ID != IDs()[i] {
			t.Errorf("experiment %d is %q, IDs() says %q", i, exp.ID, IDs()[i])
		}
		if exp.ID == "" || exp.Title == "" {
			t.Errorf("experiment missing metadata: %+v", exp)
		}
		if seen[exp.ID] {
			t.Errorf("duplicate experiment ID %q", exp.ID)
		}
		seen[exp.ID] = true
		if strings.TrimSpace(exp.Output) == "" {
			t.Errorf("experiment %s produced no output", exp.ID)
		}
		if strings.Contains(exp.Output, "%!") {
			t.Errorf("experiment %s has broken formatting:\n%s", exp.ID, exp.Output)
		}
	}
	// Spot-check that each paper artifact is present.
	for _, id := range []string{"table2", "table7", "figure9", "table11", "figure16", "table17-18", "sec83", "table20", "baseline", "sec4-timeout", "accuracy", "ablation"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestFigureCSVs(t *testing.T) {
	s := tinySuite(t)
	csvs := s.FigureCSVs()
	want := []string{
		"figure8-ec2", "figure8-azure", "figure9-ec2", "figure9-azure",
		"figure10-ec2", "figure10-azure", "figure12-ec2", "figure12-azure",
		"figure13-ec2", "figure14-ec2", "figure16-ec2", "figure16-azure",
		"figure19-ec2",
	}
	for _, k := range want {
		data, ok := csvs[k]
		if !ok {
			t.Errorf("missing CSV %q", k)
			continue
		}
		lines := strings.Split(strings.TrimSpace(data), "\n")
		if len(lines) < 2 {
			t.Errorf("CSV %q has no data rows", k)
			continue
		}
		cols := strings.Count(lines[0], ",") + 1
		for i, line := range lines[1:] {
			if strings.Count(line, ",")+1 != cols {
				t.Errorf("CSV %q row %d has wrong column count: %q", k, i+1, line)
				break
			}
		}
	}
}

func TestTable7Shape(t *testing.T) {
	s := tinySuite(t)
	out := s.Table7()
	for _, want := range []string{"Table 7 (ec2)", "Table 7 (azure)", "Overall growth", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 7 output missing %q:\n%s", want, out)
		}
	}
}

func TestTimeoutExperimentShape(t *testing.T) {
	s := tinySuite(t)
	out, err := s.Sec4TimeoutExperiment(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2s timeout", "8s timeout", "5 probes"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeout experiment missing %q:\n%s", want, out)
		}
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	s := tinySuite(t)
	out, err := s.BaselineComparison(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ec2") || !strings.Contains(out, "azure") || !strings.Contains(out, "coverage") {
		t.Errorf("baseline output:\n%s", out)
	}
}
