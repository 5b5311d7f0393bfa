// The lockdisc analyzer: lock discipline in the concurrency-bearing
// layers. One rule (mutex value copies are go vet's copylocks check,
// which `make lint` and the CI lint job run first):
//
//	lockdisc/chansend — in the core and store packages, no channel
//	    send while a mutex is lexically held. The lane's bounded
//	    channels exert backpressure by design; a send under a lock
//	    turns that backpressure into a deadlock the moment the
//	    consumer needs the same lock. The analysis is lexical (a
//	    Lock() earlier in the statement list without an intervening
//	    Unlock()) — it sees through blocks and branches but not
//	    function boundaries, which matches how the round's lane
//	    actually takes its locks.
package lint

import (
	"go/ast"
)

// runLockDisc enforces hold-across-send discipline.
func runLockDisc(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		if matchPkg(pkg.Path, lockSendPackages) {
			forEachFunc(pkg, func(fd *ast.FuncDecl) {
				walkStmts(pkg, fd.Body.List, false, &out)
			})
		}
	}
	return out
}

// walkStmts walks a statement list tracking whether a mutex is
// lexically held, flagging channel sends (including select send cases)
// made while it is. Function literals reset the held state — they run
// later, on a goroutine whose lock state this analysis cannot know.
func walkStmts(pkg *Package, stmts []ast.Stmt, held bool, out *[]Diagnostic) {
	for _, st := range stmts {
		held = walkStmt(pkg, st, held, out)
	}
}

// walkStmt processes one statement, returning the held state after it.
func walkStmt(pkg *Package, st ast.Stmt, held bool, out *[]Diagnostic) bool {
	switch nn := st.(type) {
	case *ast.ExprStmt:
		switch lockCallKind(nn.X) {
		case "lock":
			return true
		case "unlock":
			return false
		}
		checkSendsIn(pkg, nn.X, held, out)
	case *ast.SendStmt:
		if held {
			*out = append(*out, diag(pkg, nn, "lockdisc/chansend",
				"channel send while a mutex is held; backpressure on the receiver becomes a deadlock"))
		}
		checkSendsIn(pkg, nn.Value, held, out)
	case *ast.BlockStmt:
		walkStmts(pkg, nn.List, held, out)
	case *ast.IfStmt:
		walkStmts(pkg, nn.Body.List, held, out)
		if nn.Else != nil {
			walkStmt(pkg, nn.Else, held, out)
		}
	case *ast.ForStmt:
		walkStmts(pkg, nn.Body.List, held, out)
	case *ast.RangeStmt:
		walkStmts(pkg, nn.Body.List, held, out)
	case *ast.SwitchStmt:
		for _, c := range nn.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pkg, cc.Body, held, out)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range nn.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pkg, cc.Body, held, out)
			}
		}
	case *ast.SelectStmt:
		for _, c := range nn.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if send, ok := cc.Comm.(*ast.SendStmt); ok && held {
				*out = append(*out, diag(pkg, send, "lockdisc/chansend",
					"select send case while a mutex is held; backpressure on the receiver becomes a deadlock"))
			}
			walkStmts(pkg, cc.Body, held, out)
		}
	case *ast.LabeledStmt:
		return walkStmt(pkg, nn.Stmt, held, out)
	case *ast.GoStmt, *ast.DeferStmt:
		// Deferred/spawned bodies run under their own lock state.
	case *ast.AssignStmt:
		for _, rhs := range nn.Rhs {
			checkSendsIn(pkg, rhs, held, out)
		}
	}
	return held
}

// checkSendsIn flags sends hidden inside expressions (function
// literals excepted — they execute later).
func checkSendsIn(pkg *Package, expr ast.Expr, held bool, out *[]Diagnostic) {
	if !held || expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			*out = append(*out, diag(pkg, nn, "lockdisc/chansend",
				"channel send while a mutex is held; backpressure on the receiver becomes a deadlock"))
		}
		return true
	})
}

// lockCallKind classifies an expression as a mutex lock or unlock
// call.
func lockCallKind(expr ast.Expr) string {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return "lock"
	case "Unlock", "RUnlock":
		return "unlock"
	}
	return ""
}
