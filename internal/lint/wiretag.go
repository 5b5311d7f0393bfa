// The wiretag analyzer. The coord protocol and fleet view, the ops
// endpoints and the cloudapi control plane are all JSON wire
// formats consumed by peers that are not this binary — other fleet
// versions mid-upgrade, dashboards, scripted clients. A struct field
// without an explicit `json` tag puts the Go identifier itself on the
// wire, so an innocent rename becomes a silent protocol break. The
// analyzer finds every struct that can reach a wire boundary and
// demands the format be written down:
//
//	wiretag/tag — an exported, non-embedded field of a wire-crossing
//	    struct has no json tag. Wire-crossing is computed, not
//	    declared: the types at encoding/json call sites (and the ops
//	    Write helpers) inside the wire packages seed a closure that
//	    follows exported field types across package boundaries —
//	    store.Record is wire-crossing because coord's SubmitRequest
//	    embeds a ShardResult that carries records.
package lint

import (
	"go/ast"
	"go/types"
	"reflect"
)

// runWireTag makes every wire-crossing struct's JSON shape explicit.
func runWireTag(pkgs []*Package) []Diagnostic {
	byTypes := map[*types.Package]*Package{}
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}

	var out []Diagnostic
	var seeds []*types.Named
	seen := map[*types.Named]bool{}
	add := func(t types.Type) {
		collectNamedStructs(t, func(n *types.Named) {
			if !seen[n] {
				seen[n] = true
				seeds = append(seeds, n)
			}
		}, map[types.Type]bool{})
	}

	sinks := wireSinks(pkgs)
	for _, pkg := range pkgs {
		if !matchPkg(pkg.Path, wirePackages) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				params := sinkParams(pkg, call, sinks)
				for i := range params {
					if i >= len(call.Args) {
						continue
					}
					if tv, ok := pkg.Info.Types[call.Args[i]]; ok && tv.Type != nil {
						add(tv.Type)
					}
				}
				return true
			})
		}
	}

	// Closure over exported (and embedded) field types, flagging
	// untagged exported fields as we go. Only structs whose defining
	// package is loaded are audited — stdlib types marshal themselves.
	for i := 0; i < len(seeds); i++ {
		named := seeds[i]
		owner := byTypes[named.Obj().Pkg()]
		if owner == nil {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			field := st.Field(j)
			if field.Embedded() {
				add(field.Type()) // promoted fields are audited in the embedded type
				continue
			}
			if !field.Exported() {
				continue
			}
			if !hasJSONTag(st.Tag(j)) {
				out = append(out, Diagnostic{
					Pos:  owner.Fset.Position(field.Pos()),
					Rule: "wiretag/tag",
					Msg: "exported field " + field.Name() + " of wire-crossing struct " + named.Obj().Name() +
						" has no json tag; the wire format must be explicit, not the Go identifier",
				})
			}
			add(field.Type())
		}
	}
	return out
}

// wireSinks computes, for every module function, which of its
// parameters reach a JSON encoder — directly (json.Marshal(v)) or
// through other module helpers (post wraps Marshal, writeJSON wraps
// WriteJSON wraps Encode), by propagating over the declarations to a
// fixpoint. This is what lets coord's generic post(ctx, path, body,
// reply) helper seed the closure with the concrete types its callers
// pass.
func wireSinks(pkgs []*Package) map[*types.Func]map[int]bool {
	sinks := map[*types.Func]map[int]bool{}
	for changed := true; changed; {
		changed = false
		for _, pkg := range pkgs {
			forEachFunc(pkg, func(fd *ast.FuncDecl) {
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				params := paramObjects(fd, pkg.Info)
				if !ok || len(params) == 0 {
					return
				}
				inspectOwnBody(fd.Body, func(node ast.Node) {
					call, ok := node.(*ast.CallExpr)
					if !ok {
						return
					}
					for i := range sinkParams(pkg, call, sinks) {
						if i >= len(call.Args) {
							continue
						}
						pi, ok := paramIndexOf(pkg.Info, call.Args[i], params)
						if !ok {
							continue
						}
						if sinks[fn] == nil {
							sinks[fn] = map[int]bool{}
						}
						if !sinks[fn][pi] {
							sinks[fn][pi] = true
							changed = true
						}
					}
				})
			})
		}
	}
	return sinks
}

// sinkParams returns the argument indices of a call that flow to a
// JSON encoder: the encoding/json entry points and the propagated
// module helpers.
func sinkParams(pkg *Package, call *ast.CallExpr, sinks map[*types.Func]map[int]bool) map[int]bool {
	fn, ok := calleeOf(pkg, call).(*types.Func)
	if !ok {
		return nil
	}
	if objPkgPath(fn) == "encoding/json" {
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode", "Decode":
			return map[int]bool{0: true}
		case "Unmarshal":
			return map[int]bool{1: true}
		}
	}
	return sinks[fn]
}

// paramObjects maps a declaration's parameter objects to their index.
func paramObjects(fd *ast.FuncDecl, info *types.Info) map[types.Object]int {
	out := map[types.Object]int{}
	if fd.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// paramIndexOf resolves an argument expression to the enclosing
// function's parameter it references (unwrapping a leading &).
func paramIndexOf(info *types.Info, arg ast.Expr, params map[types.Object]int) (int, bool) {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	if obj := info.Uses[id]; obj != nil {
		if i, ok := params[obj]; ok {
			return i, true
		}
	}
	return 0, false
}

// collectNamedStructs walks a type, calling visit for every named
// struct type reachable without following a method (pointers, slices,
// arrays, maps and channels are unwrapped).
func collectNamedStructs(t types.Type, visit func(*types.Named), seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch tt := t.(type) {
	case *types.Named:
		if _, ok := tt.Underlying().(*types.Struct); ok {
			visit(tt)
		}
	case *types.Pointer:
		collectNamedStructs(tt.Elem(), visit, seen)
	case *types.Slice:
		collectNamedStructs(tt.Elem(), visit, seen)
	case *types.Array:
		collectNamedStructs(tt.Elem(), visit, seen)
	case *types.Map:
		collectNamedStructs(tt.Key(), visit, seen)
		collectNamedStructs(tt.Elem(), visit, seen)
	case *types.Chan:
		collectNamedStructs(tt.Elem(), visit, seen)
	}
}

// hasJSONTag reports whether a struct tag carries an explicit json
// key (including `json:"-"` — an explicit exclusion is a decision).
func hasJSONTag(tag string) bool {
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}
