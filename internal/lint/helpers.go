// Shared AST/type-resolution helpers for the analyzers.
package lint

import (
	"go/ast"
	"go/types"
)

// pkgRef resolves a selector like time.Now to its (package path,
// object) when X names an imported package; ok is false otherwise.
func pkgRef(pkg *Package, sel *ast.SelectorExpr) (path string, obj types.Object, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", nil, false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", nil, false
	}
	return pn.Imported().Path(), pkg.Info.Uses[sel.Sel], true
}

// calleeOf resolves a call expression's callee object (a *types.Func
// for method and function calls), or nil.
func calleeOf(pkg *Package, call *ast.CallExpr) types.Object {
	return calleeOfInfo(pkg.Info, call)
}

// calleeOfInfo is calleeOf for code holding only the type info (the
// call-graph-backed analyzers work on callgraph nodes, whose packages
// are not lint Packages).
func calleeOfInfo(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// baseObj resolves the object an expression names: a plain identifier
// (local, parameter, package var) or a selector's field/method object
// (s.srv resolves to the srv field). nil when the expression is more
// complex than a name.
func baseObj(info *types.Info, expr ast.Expr) types.Object {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

// inspectOwnBody walks a function body without descending into nested
// function literals — a literal's statements belong to the literal's
// own call-graph node, not its encloser's.
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

// recvIdent returns a method's named receiver identifier, or nil for
// functions and unnamed/blank receivers.
func recvIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}

// recvTypeName returns the receiver's named type and whether it is a
// pointer receiver.
func recvTypeName(fd *ast.FuncDecl) (name string, pointer bool) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		pointer = true
		t = star.X
	}
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name, pointer
	case *ast.IndexExpr: // generic receiver
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name, pointer
		}
	case *ast.IndexListExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name, pointer
		}
	}
	return "", pointer
}

// isNilCheckOf reports whether an expression contains a comparison of
// the named receiver against nil (either == or !=, possibly inside
// && / || chains).
func isNilCheckOf(expr ast.Expr, recv string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if be.Op.String() != "==" && be.Op.String() != "!=" {
			return true
		}
		x, xok := ast.Unparen(be.X).(*ast.Ident)
		y, yok := ast.Unparen(be.Y).(*ast.Ident)
		if xok && yok &&
			((x.Name == recv && y.Name == "nil") || (y.Name == recv && x.Name == "nil")) {
			found = true
			return false
		}
		return true
	})
	return found
}

// diag builds a Diagnostic at a node's position.
func diag(pkg *Package, n ast.Node, rule, msg string) Diagnostic {
	return Diagnostic{Pos: pkg.Fset.Position(n.Pos()), Rule: rule, Msg: msg}
}
