// The errcheck-lite analyzer. WhoWas's durability story is the
// crash-safe write path: atomicfile's temp-and-rename protocol, the
// store's finalize/save sequence, and the trace journal's flush-close.
// An error silently dropped on any of those paths converts "the report
// is either old-and-intact or new-and-complete" into "the report may
// be garbage" — so discards there are compile-adjacent errors, not
// style. One rule:
//
//	errcheck/discard — a bare call statement (or defer) that throws
//	    away an error returned by (a) anything from an error-source
//	    package like atomicfile, (b) an error-returning function from
//	    the store or trace packages, (c) Close/Sync on an os.File
//	    that this function opened for writing, or (d) a forwarder — a
//	    function anywhere in the module whose return statement hands
//	    back an error it got from (a) or (b), so wrapping a store
//	    mutation in a helper does not launder the discard. An explicit
//	    `_ = call` is intentional and exempt — the discard is visible
//	    in review. Inside an error-source package itself, every bare
//	    discard is flagged (the whole package is write path).
package lint

import (
	"go/ast"
	"go/types"
)

// runErrCheck flags discarded errors on crash-safety write paths.
func runErrCheck(pkgs []*Package) []Diagnostic {
	forwarders := errForwarders(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		insideSource := matchPkg(pkg.Path, errSourcePackages)
		forEachFunc(pkg, func(fd *ast.FuncDecl) {
			writeFiles := writeOpenedFiles(pkg, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch nn := n.(type) {
				case *ast.ExprStmt:
					call, _ = nn.X.(*ast.CallExpr)
				case *ast.DeferStmt:
					call = nn.Call
				}
				if call == nil {
					return true
				}
				obj := calleeOf(pkg, call)
				if obj == nil || !returnsError(obj) {
					return true
				}
				calleePkg := objPkgPath(obj)
				switch {
				case insideSource:
					out = append(out, diag(pkg, call, "errcheck/discard",
						"error from "+obj.Name()+" discarded inside a crash-safety package; handle it or assign it to _ explicitly"))
				case matchPkg(calleePkg, errSourcePackages):
					out = append(out, diag(pkg, call, "errcheck/discard",
						"error from "+calleePkg+"."+obj.Name()+" discarded; the atomic-write protocol's outcome must be checked"))
				case matchPkg(calleePkg, errMethodPackages):
					out = append(out, diag(pkg, call, "errcheck/discard",
						"error from "+calleePkg+"."+obj.Name()+" discarded; store/journal mutations must surface their failures"))
				case forwarderDiscard(obj, forwarders):
					out = append(out, diag(pkg, call, "errcheck/discard",
						"error from "+obj.Name()+" discarded; it forwards a crash-path error from "+forwarders[obj.(*types.Func)]+" — wrapping the mutation in a helper does not make the failure ignorable"))
				case isWritePathClose(pkg, call, obj, writeFiles):
					out = append(out, diag(pkg, call, "errcheck/discard",
						"error from Close on a file opened for writing discarded; a failed close loses buffered data silently"))
				}
				return true
			})
		})
	}
	return out
}

// errForwarders finds module functions whose return statements hand
// back the error of a crash-path call — the one-level helpers whose
// discard is as dangerous as discarding the underlying mutation. The
// map value names the forwarded package for the diagnostic.
func errForwarders(pkgs []*Package) map[*types.Func]string {
	out := map[*types.Func]string{}
	crashPath := append(append([]string{}, errSourcePackages...), errMethodPackages...)
	for _, pkg := range pkgs {
		forEachFunc(pkg, func(fd *ast.FuncDecl) {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !returnsError(fn) {
				return
			}
			inspectOwnBody(fd.Body, func(node ast.Node) {
				ret, ok := node.(*ast.ReturnStmt)
				if !ok {
					return
				}
				for _, res := range ret.Results {
					ast.Inspect(res, func(inner ast.Node) bool {
						call, ok := inner.(*ast.CallExpr)
						if !ok {
							return true
						}
						obj := calleeOf(pkg, call)
						if obj != nil && returnsError(obj) && matchPkg(objPkgPath(obj), crashPath) {
							out[fn] = objPkgPath(obj)
						}
						return true
					})
				}
			})
		})
	}
	return out
}

// forwarderDiscard reports whether the discarded callee is a known
// crash-path forwarder (and is not itself in a crash-path package,
// which the earlier cases already cover).
func forwarderDiscard(obj types.Object, forwarders map[*types.Func]string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	_, isFwd := forwarders[fn]
	return isFwd
}

// writeOpenedFiles collects the variables in this function that hold
// files opened for writing: assigned from os.Create, or os.OpenFile
// with O_WRONLY / O_RDWR / O_APPEND in its flags.
func writeOpenedFiles(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, ok := pkgRef(pkg, sel)
		if !ok || path != "os" {
			return true
		}
		if sel.Sel.Name != "Create" && !(sel.Sel.Name == "OpenFile" && hasWriteFlag(call)) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// hasWriteFlag reports whether an os.OpenFile call's flag argument
// mentions a write-mode constant.
func hasWriteFlag(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
			found = true
			return false
		}
		return true
	})
	return found
}

// isWritePathClose reports whether the call is Close or Sync on one of
// the function's write-opened files.
func isWritePathClose(pkg *Package, call *ast.CallExpr, obj types.Object, writeFiles map[types.Object]bool) bool {
	if obj.Name() != "Close" && obj.Name() != "Sync" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	recv := pkg.Info.Uses[id]
	return recv != nil && writeFiles[recv]
}
