// Package allocfree guards the benchgate tier-1 hot paths: functions
// annotated //snvet:alloc-free (Engine.Schedule, Network.Send, the
// snoop data path) must stay allocation-free, because one heap
// allocation per simulated message turns the zero-allocation steady
// state PR 2 established back into GC pressure that the benchmark gate
// only catches after the fact.
//
// The check is syntactic and intentionally conservative about what
// counts as an allocation: escaping composite literals (&T{...} and
// reference-typed literals), function literals (closure environments),
// append (growth may reallocate), make of any kind, new, interface
// boxing of non-pointer arguments at call sites, and map stores
// (m[k] = v, m[k] op= v, m[k]++), which may grow the map. Three escapes:
// a //snvet:alloc-ok line annotation (amortized pool growth paths),
// blocks that end in panic (allocation on a failure path is free), and
// unannotated functions, which allocfree never inspects.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"safetynet/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "reports allocating constructs in //snvet:alloc-free functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		parents := analysis.Parents([]*ast.File{file})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !pass.Ann.FuncHas(fd, analysis.KindNoAlloc) {
				continue
			}
			v := &visitor{pass: pass, parents: parents, fn: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				return v.visit(n)
			})
		}
	}
	return nil
}

type visitor struct {
	pass    *analysis.Pass
	parents map[ast.Node]ast.Node
	fn      *ast.FuncDecl
}

// visit inspects one node; returning false prunes the subtree.
func (v *visitor) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		v.report(n.Pos(), "function literal allocates its closure environment")
		return false // its body runs elsewhere; don't double-report
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				v.report(n.Pos(), "escaping composite literal allocates")
				return false
			}
		}
	case *ast.CompositeLit:
		// Value struct/array literals live on the stack; slice and map
		// literals always allocate their backing store.
		switch v.pass.TypesInfo.Types[n].Type.Underlying().(type) {
		case *types.Slice:
			v.report(n.Pos(), "slice literal allocates its backing array")
		case *types.Map:
			v.report(n.Pos(), "map literal allocates")
		}
	case *ast.CallExpr:
		v.checkCall(n)
	case *ast.AssignStmt:
		if n.Tok != token.DEFINE {
			for _, lhs := range n.Lhs {
				v.checkMapStore(lhs)
			}
		}
	case *ast.IncDecStmt:
		v.checkMapStore(n.X)
	}
	return true
}

// checkMapStore flags an assignment target that stores into a map: a
// new key may grow the map's table.
func (v *visitor) checkMapStore(lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if tv, ok := v.pass.TypesInfo.Types[ix.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			v.report(ix.Pos(), "map store may grow the map")
		}
	}
}

// checkCall flags allocating builtins and interface boxing of call
// arguments.
func (v *visitor) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := v.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				v.report(call.Pos(), "append may grow and reallocate the slice")
			case "make":
				v.report(call.Pos(), "make allocates")
			case "new":
				v.report(call.Pos(), "new allocates")
			}
			return
		}
	}
	tv, ok := v.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // instantiation decides; out of scope
		}
		if !types.IsInterface(pt) || isWordSized(v.pass.TypesInfo.Types[arg].Type) {
			continue
		}
		v.report(arg.Pos(), "interface boxing of a non-pointer value allocates")
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		// At least one variadic argument: the slice backing them is
		// allocated at the call site.
		v.report(call.Pos(), "variadic call allocates its argument slice")
	}
}

// isWordSized reports whether boxing t into an interface stores the
// value directly (pointers and pointer-shaped types) rather than
// heap-allocating a copy.
func isWordSized(t types.Type) bool {
	if t == nil {
		return true // untyped nil
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil
	case *types.Interface:
		return true // already boxed
	}
	return false
}

// report emits a diagnostic unless the line carries //snvet:alloc-ok
// or the enclosing block ends in panic (failure paths may allocate).
func (v *visitor) report(pos token.Pos, msg string) {
	if v.pass.Ann.Allowed(pos, nil, analysis.KindAllocOK) {
		return
	}
	if v.onPanicPath(pos) {
		return
	}
	v.pass.Reportf(pos, "%s in alloc-free function %q", msg, v.fn.Name.Name)
}

// onPanicPath reports whether the node at pos sits in a block whose
// final statement panics.
func (v *visitor) onPanicPath(pos token.Pos) bool {
	// Find the innermost enclosing statement, then climb blocks.
	var node ast.Node
	ast.Inspect(v.fn.Body, func(n ast.Node) bool {
		if n == nil || !(n.Pos() <= pos && pos < n.End()) {
			return false
		}
		node = n
		return true
	})
	for n := node; n != nil && n != ast.Node(v.fn); n = v.parents[n] {
		blk, ok := n.(*ast.BlockStmt)
		if !ok || len(blk.List) == 0 {
			continue
		}
		if es, ok := blk.List[len(blk.List)-1].(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}
