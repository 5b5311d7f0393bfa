package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current analyzer output")

// fixturePackages loads one package of the fixture module under
// testdata/src/fixture. The fixture module's import paths end in the
// same suffixes the analyzers' scopes match, so the suite runs over it
// exactly as it runs over the real module.
func fixturePackage(t *testing.T, pattern string) (*Package, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if got := loader.ModulePath(); got != "fixture" {
		t.Fatalf("fixture module path = %q, want %q", got, "fixture")
	}
	pkgs, err := loader.Load(pattern)
	if err != nil {
		t.Fatalf("Load(%q): %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%q) returned %d packages, want 1", pattern, len(pkgs))
	}
	return pkgs[0], root
}

// render formats diagnostics with fixture-root-relative slash paths so
// the golden files are stable across machines.
func render(diags []Diagnostic, root string) string {
	var b strings.Builder
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestAnalyzerGoldens runs the suite over each fixture package and
// compares the diagnostics against a golden file.
// Regenerate with `go test ./internal/lint -run Goldens -update`.
func TestAnalyzerGoldens(t *testing.T) {
	cases := []struct {
		name    string // golden file stem
		pattern string // fixture package
	}{
		{"errcheck_source", "./internal/atomicfile"},
		{"errcheck_lockdisc", "./internal/coord"},
		{"errcheck_forwarder", "./internal/relay"},
		{"wiretag", "./internal/httpd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, root := fixturePackage(t, tc.pattern)
			got := render(run([]*Package{pkg}), root)
			goldenPath := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestCleanFixtureStaysClean pins the negative space: the fixture
// store package contains no violations and must produce no
// diagnostics.
func TestCleanFixtureStaysClean(t *testing.T) {
	pkg, root := fixturePackage(t, "./internal/store")
	if got := render(run([]*Package{pkg}), root); got != "" {
		t.Errorf("clean fixture produced diagnostics:\n%s", got)
	}
}

// TestRepoHeadClean is the suite's entry point and the gate `make lint`
// and CI run: the module at HEAD must lint clean. Skipped under -short
// because it type-checks the whole module.
func TestRepoHeadClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages from the module root")
	}
	for _, d := range run(pkgs) {
		if rel, err := filepath.Rel(loader.ModuleRoot(), d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		t.Errorf("repo HEAD is not lint-clean: %s", d)
	}
}
