// The ctxfirst analyzer. The I/O packages — scanner, fetcher, core —
// are the layers a campaign cancels through: the §7 ethics
// contract ("stop probing when told to stop") is only as good as
// context propagation. Two rules keep that propagation structural:
//
//	ctxfirst/param — a function taking a context.Context takes it as
//	    its first parameter, so call sites and wrappers compose
//	    mechanically.
//	ctxfirst/background — an exported function does not mint its own
//	    context.Background()/TODO(); it must accept the caller's
//	    context, or cancellation silently stops at its boundary.
//	    (package main is exempt: the process entry point is where a
//	    root context is legitimately born.)
package lint

import (
	"go/ast"
	"strconv"
)

// CtxFirstAnalyzer enforces context-first signatures and forbids
// context minting in the I/O packages.
var CtxFirstAnalyzer = &Analyzer{
	Name: "ctxfirst",
	Doc:  "I/O-package functions take context.Context first and never mint their own",
	Run:  runCtxFirst,
}

func runCtxFirst(pkg *Package, opts Options) []Diagnostic {
	if !matchPkg(pkg.Path, opts.CtxPackages) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			out = append(out, ctxParamDiags(pkg, fd)...)
			if fd.Name.IsExported() && fd.Body != nil && pkg.Types.Name() != "main" {
				out = append(out, ctxMintDiags(pkg, fd)...)
			}
		}
	}
	return out
}

// ctxParamDiags flags context.Context parameters in any position but
// the first.
func ctxParamDiags(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	if fd.Type.Params == nil {
		return nil
	}
	var out []Diagnostic
	pos := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		t := pkg.Info.TypeOf(field.Type)
		if t != nil && t.String() == "context.Context" && pos > 0 {
			out = append(out, diag(pkg, field.Type, "ctxfirst/param",
				fd.Name.Name+" takes context.Context in position "+strconv.Itoa(pos)+"; it must be the first parameter"))
		}
		pos += n
	}
	return out
}

// ctxMintDiags flags context.Background()/TODO() calls inside exported
// library functions.
func ctxMintDiags(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, _, ok := pkgRef(pkg, sel)
		if !ok || path != "context" {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			out = append(out, diag(pkg, call, "ctxfirst/background",
				"exported "+fd.Name.Name+" mints context."+sel.Sel.Name+"(); accept the caller's context so cancellation propagates"))
		}
		return true
	})
	return out
}
