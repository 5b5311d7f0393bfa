// Shared AST/type-resolution helpers for the analyzers.
package lint

import (
	"go/ast"
	"go/types"
)

// pkgRef returns the import path of the package a selector's X names
// (time in time.Now); ok is false when X is not a package name.
func pkgRef(pkg *Package, sel *ast.SelectorExpr) (path string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", false
	}
	return pn.Imported().Path(), true
}

// calleeOf resolves a call expression's callee object (a *types.Func
// for method and function calls), or nil.
func calleeOf(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// forEachFunc calls fn for every function declaration with a body in
// the package.
func forEachFunc(pkg *Package, fn func(*ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// inspectOwnBody walks a function body without descending into nested
// function literals — a literal's statements are not its encloser's
// (a return inside one does not return from the declaration).
func inspectOwnBody(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// returnsError reports whether the object is a function whose result
// list includes an error.
func returnsError(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}

// objPkgPath returns the import path of the package the object belongs
// to ("" for builtins and universe-scope objects).
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// diag builds a Diagnostic at a node's position.
func diag(pkg *Package, n ast.Node, rule, msg string) Diagnostic {
	return Diagnostic{Pos: pkg.Fset.Position(n.Pos()), Rule: rule, Msg: msg}
}
