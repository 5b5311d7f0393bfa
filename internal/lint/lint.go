// Package lint is WhoWas's project-invariant static-analysis suite: a
// dependency-free framework on the standard library's go/ast, go/parser
// and go/types that machine-checks the invariants the compiler cannot —
// the properties the platform's headline claims rest on.
//
// WhoWas promises byte-identical round digests across shard counts and
// reruns (the clustering-reproducibility contract), a probe budget that
// never exceeds the ethics envelope, and nil-safe metrics/trace handles
// threaded through every pipeline stage. After several generations of
// concurrency growth those invariants were enforced only by convention;
// this package turns each one into an analyzer that fails the build:
//
//   - determinism — no wall-clock reads, argless math/rand draws, or
//     map-iteration-order-dependent output in the packages whose output
//     feeds the store digest (cloudsim, cluster, features, simhash,
//     store, colstore).
//   - nilsafe — every exported method on the metrics/trace handle
//     types begins with a nil-receiver guard (or delegates to one),
//     keeping the "nil handle is a no-op" contract true forever.
//   - ctxfirst — functions in the I/O packages (scanner, fetcher,
//     core) take context.Context as their first parameter and
//     exported functions never mint their own context.Background.
//   - errcheck — no silently discarded error returns from the
//     crash-safety layer (atomicfile, store mutations, trace journal)
//     or from closing files opened for writing.
//   - lockdisc — lock discipline: no channel send while a mutex is
//     held in core/store (colstore included); mutex value copies
//     are go vet's to report.
//
// A second generation of analyzers runs over the whole module at once,
// powered by the conservative call graph in internal/lint/callgraph
// (static calls, interface method sets, function values tracked one
// level):
//
//   - goleak — every goroutine spawned by a `go` statement must reach
//     a join or cancel path: a WaitGroup Done/Wait, a receive from a
//     context's Done channel, a close/send on a channel the spawner
//     receives from, a server loop whose Close/Shutdown is called
//     elsewhere, or a connection-scoped handler that defers Close on
//     the conn it owns. The exact shape of the PR 4 fetcher leak and
//     the PR 7 coordinator leak.
//   - wiretag — every struct that crosses a wire boundary (the coord
//     protocol, ops JSON documents, the cloudapi control plane,
//     fleetobs reports — found by tracing encoder call sites and
//     closing over field types) carries explicit `json` tags on all
//     exported fields, and no wire package iterates a map straight
//     into an encoder.
//   - atomicwrite — the persistence packages (store, colstore, the
//     trace journal) never open a file destructively themselves
//     (os.Create / os.WriteFile / O_TRUNC); every durable write goes
//     through internal/atomicfile's temp-and-rename protocol.
//   - budgetpath — every probe-issuing DialContext in scanner, core
//     and coord is dominated by a rate-budget token acquisition
//     (ratelimit.Limiter.Wait and friends), directly or through every
//     caller path, so no new code path can bypass the §7 envelope.
//
// A finding the code is genuinely right to ignore is suppressed in
// place with a written reason:
//
//	//lint:allow <rule> <reason>
//
// on the flagged line or the line above it. A suppression without a
// reason, or one that matches nothing, is itself a diagnostic — the
// suppression inventory stays honest.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"whowas/internal/lint/callgraph"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos  token.Position
	Rule string // e.g. "determinism/wallclock"
	Msg  string
}

// String renders the diagnostic in the conventional
// file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Analyzer is one named check. Intraprocedural analyzers set Run and
// are invoked once per package; interprocedural analyzers set
// RunModule and are invoked once over every loaded package plus the
// call graph built from them. Exactly one of the two is set.
type Analyzer struct {
	// Name is the rule category; individual diagnostics carry rule IDs
	// of the form "<Name>/<check>".
	Name string
	// Doc is a one-line description shown by `whowas-lint -rules`.
	Doc string
	// Run inspects one package and returns its findings.
	Run func(pkg *Package, opts Options) []Diagnostic
	// RunModule inspects the whole load at once with the call graph.
	RunModule func(pkgs []*Package, g *callgraph.Graph, opts Options) []Diagnostic
}

// Options scopes the analyzers to the packages whose invariants they
// guard. Packages are matched by import-path suffix (so the same suite
// runs over the real module and over test fixtures).
type Options struct {
	// Deterministic lists the packages whose output feeds the store
	// digest; the determinism analyzer runs only there.
	Deterministic []string
	// NilSafe maps a package suffix to the handle type names whose
	// exported pointer-receiver methods must start with a nil guard.
	NilSafe map[string][]string
	// CtxPackages lists the I/O packages held to the context-first
	// convention.
	CtxPackages []string
	// ErrSourcePackages lists packages (like atomicfile) all of whose
	// error returns must be checked by callers — and inside which no
	// error may be discarded at all (they are pure write path).
	ErrSourcePackages []string
	// ErrMethodPackages lists packages whose exported error-returning
	// methods must never be bare-discarded (store mutations, the trace
	// journal).
	ErrMethodPackages []string
	// LockSendPackages lists the packages checked for channel sends
	// under a held mutex.
	LockSendPackages []string
	// WirePackages lists the packages whose JSON encoder/decoder call
	// sites seed the wiretag closure — the wire boundaries.
	WirePackages []string
	// PersistPackages lists the packages that must route every durable
	// write through AtomicPackages (atomicwrite analyzer).
	PersistPackages []string
	// AtomicPackages lists the packages allowed to open files
	// destructively — the temp-and-rename layer itself.
	AtomicPackages []string
	// BudgetPackages lists the packages whose DialContext calls must be
	// dominated by a budget acquisition (budgetpath analyzer).
	BudgetPackages []string
	// BudgetAcquire lists token acquisitions as "pkgsuffix.Func"; a
	// call reaching one of these (directly or through the call graph)
	// satisfies budgetpath.
	BudgetAcquire []string
}

// DefaultOptions returns the suite configuration for the WhoWas module
// itself.
func DefaultOptions() Options {
	return Options{
		Deterministic: []string{
			"internal/cloudsim",
			"internal/cluster",
			"internal/features",
			"internal/simhash",
			"internal/store",
			"internal/store/colstore",
		},
		NilSafe: map[string][]string{
			"internal/metrics": {"Counter", "Gauge", "Stage", "Histogram", "Registry"},
			"internal/trace":   {"Tracer", "Span"},
		},
		CtxPackages: []string{
			"internal/scanner",
			"internal/fetcher",
			"internal/core",
			"internal/cloudapi",
			"internal/coord",
		},
		ErrSourcePackages: []string{"internal/atomicfile"},
		ErrMethodPackages: []string{"internal/store", "internal/store/colstore", "internal/trace"},
		LockSendPackages:  []string{"internal/core", "internal/store", "internal/store/colstore", "internal/coord", "internal/fleetobs"},
		WirePackages: []string{
			"internal/coord",
			"internal/ops",
			"internal/cloudapi",
			"internal/fleetobs",
			"internal/httpd",
		},
		PersistPackages: []string{"internal/store", "internal/store/colstore", "internal/trace"},
		AtomicPackages:  []string{"internal/atomicfile"},
		BudgetPackages:  []string{"internal/scanner", "internal/core", "internal/coord"},
		BudgetAcquire: []string{
			"internal/ratelimit.Wait",
			"internal/ratelimit.Allow",
			"internal/ratelimit.Acquire",
		},
	}
}

// matchPkg reports whether a package import path matches one of the
// configured suffixes (exactly, or as a "/"-delimited suffix).
func matchPkg(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Suite is an ordered set of analyzers plus the options they run
// under.
type Suite struct {
	Analyzers []*Analyzer
	Opts      Options
}

// NewSuite assembles the full analyzer suite under the given options.
func NewSuite(opts Options) *Suite {
	return &Suite{
		Analyzers: []*Analyzer{
			DeterminismAnalyzer,
			NilSafeAnalyzer,
			CtxFirstAnalyzer,
			ErrCheckAnalyzer,
			LockDiscAnalyzer,
			GoLeakAnalyzer,
			WireTagAnalyzer,
			AtomicWriteAnalyzer,
			BudgetPathAnalyzer,
		},
		Opts: opts,
	}
}

// Select narrows the suite to the named analyzers (the whowas-lint
// -analyzers flag). Unknown names are reported, not ignored.
func (s *Suite) Select(names []string) error {
	byName := map[string]*Analyzer{}
	for _, a := range s.Analyzers {
		byName[a.Name] = a
	}
	var kept []*Analyzer
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return fmt.Errorf("unknown analyzer %q", name)
		}
		kept = append(kept, a)
	}
	s.Analyzers = kept
	return nil
}

// DefaultSuite is NewSuite(DefaultOptions()).
func DefaultSuite() *Suite { return NewSuite(DefaultOptions()) }

// Run executes every analyzer over every package, applies the
// //lint:allow suppressions, and returns the surviving diagnostics
// sorted by position. Malformed or unused suppressions are reported as
// lint/* diagnostics alongside the analyzers' own.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	// Suppressions are collected module-wide up front: module-level
	// analyzers report across package boundaries, and allow.matches
	// compares filenames, so applying the whole set to every finding
	// is exact.
	var allows []*allow
	var out []Diagnostic
	for _, pkg := range pkgs {
		pkgAllows, allowDiags := collectAllows(pkg)
		allows = append(allows, pkgAllows...)
		out = append(out, allowDiags...)
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range s.Analyzers {
			if a.Run != nil {
				raw = append(raw, a.Run(pkg, s.Opts)...)
			}
		}
	}
	if s.needsGraph() {
		g := callgraph.Build(graphPkgs(pkgs))
		for _, a := range s.Analyzers {
			if a.RunModule != nil {
				raw = append(raw, a.RunModule(pkgs, g, s.Opts)...)
			}
		}
	}
	out = append(out, applyAllows(raw, allows)...)
	out = append(out, unusedAllows(allows)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// needsGraph reports whether any selected analyzer is interprocedural.
func (s *Suite) needsGraph() bool {
	for _, a := range s.Analyzers {
		if a.RunModule != nil {
			return true
		}
	}
	return false
}

// graphPkgs adapts the loader's packages to the call-graph builder's
// input shape.
func graphPkgs(pkgs []*Package) []*callgraph.Pkg {
	out := make([]*callgraph.Pkg, 0, len(pkgs))
	for _, p := range pkgs {
		out = append(out, &callgraph.Pkg{Path: p.Path, Files: p.Files, Info: p.Info, Types: p.Types})
	}
	return out
}
