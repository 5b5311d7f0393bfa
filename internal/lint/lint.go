// Package lint is WhoWas's project-invariant static-analysis suite: a
// dependency-free framework on the standard library's go/ast, go/parser
// and go/types that machine-checks the invariants the compiler cannot
// and no test observes.
//
// Every rule here earned its place in a mutation audit (DESIGN.md §8):
// each catches a behaviour-changing bug that go vet, the test suite
// and the gate scripts all miss. Rules whose bugs the tests already
// catch were retired.
//
//   - wiretag — every struct that crosses a wire boundary (the coord
//     protocol and fleet view, ops JSON documents, the cloudapi
//     control plane — found by tracing encoder call sites and
//     closing over field types) carries explicit `json` tags on all
//     exported fields.
//   - errcheck — no silently discarded error returns from the
//     crash-safety layer (atomicfile, store mutations, trace journal),
//     from helpers that forward those errors, or from closing files
//     opened for writing.
//   - lockdisc — lock discipline: no channel send while a mutex is
//     held in the backpressured layers; mutex value copies are go
//     vet's to report.
//
// TestRepoHeadClean is the gate: the module at HEAD must produce no
// diagnostic. A finding the code is right to ignore is handled by
// narrowing the rule's scope here, not by an in-source exemption.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos  token.Position
	Rule string // e.g. "wiretag/tag"
	Msg  string
}

// String renders the diagnostic in the conventional
// file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// The analyzers' scopes, matched by import-path suffix so the same
// suite runs over the real module and over the test fixture module.
var (
	// errSourcePackages' every error return must be checked by callers,
	// and inside them no error may be discarded at all (they are pure
	// write path).
	errSourcePackages = []string{"internal/atomicfile"}
	// errMethodPackages' error-returning functions must never be
	// bare-discarded (store mutations, the trace journal).
	errMethodPackages = []string{"internal/store", "internal/store/colstore", "internal/trace"}
	// lockSendPackages are checked for channel sends under a held mutex.
	lockSendPackages = []string{"internal/core", "internal/store", "internal/store/colstore", "internal/coord"}
	// wirePackages' JSON encoder/decoder call sites seed the wiretag
	// closure — the wire boundaries.
	wirePackages = []string{"internal/coord", "internal/ops", "internal/cloudapi", "internal/httpd"}
)

// matchPkg reports whether a package import path matches one of the
// scope suffixes (exactly, or as a "/"-delimited suffix).
func matchPkg(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// analyzers is the suite. Each runs over every loaded package at once
// (the wiretag closure and the errcheck forwarders cross package
// boundaries); a diagnostic's rule ID is "<analyzer>/<check>".
var analyzers = []func(pkgs []*Package) []Diagnostic{runErrCheck, runLockDisc, runWireTag}

// run executes every analyzer over the packages and returns the
// diagnostics sorted by position.
func run(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		out = append(out, a(pkgs)...)
	}
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
