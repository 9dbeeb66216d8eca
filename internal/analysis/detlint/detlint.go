// Package detlint flags nondeterminism sources in the deterministic
// packages: the simulation core, both coherence backends, the campaign
// and statistics reducers, scenario handling, and the daemon's report
// paths all promise byte-identical output at any worker count,
// and each of this analyzer's three checks corresponds to a way that
// promise has historically been broken.
//
//  1. Iterating a map in a loop whose body feeds an order-sensitive
//     sink — appending to an outer slice, concatenating onto an outer
//     string, scheduling events, or writing/encoding output — leaks Go's
//     randomized map order into results. Collecting keys and sorting
//     them before use is the sanctioned pattern and is recognized (a
//     key-collection loop whose slice is later passed to sort/slices
//     sorting is not flagged); for simple string-keyed loops the
//     analyzer offers a mechanical sorted-iteration rewrite.
//
//  2. time.Now / time.Since / time.Until and the global math/rand
//     functions smuggle wall-clock and process-global state into
//     simulation results. Legitimate uses (the daemon's throughput
//     gauge, retry jitter) must carry a checked //snvet:wallclock
//     annotation; annotations that suppress nothing are themselves
//     reported as stale.
//
//  3. Goroutines launched outside the worker pool (internal/runner) and
//     the daemon (internal/serve) execute model code on goroutines the
//     deterministic event order knows nothing about.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"safetynet/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "flags nondeterminism sources (map-order leaks, wall-clock reads, stray goroutines) in the deterministic packages",
	Run:  run,
}

// goroutinePkgs are the packages allowed to launch goroutines: the
// process-level worker pool and the serving daemon. Everything else in
// the deterministic set, the event engine included, must schedule
// through the engine.
var goroutinePkgs = []string{"runner", "serve"}

// orderSinks are call names whose argument order is observable:
// scheduling events, sending messages, and writing or encoding output.
var orderSinks = map[string]bool{
	"Schedule": true, "ScheduleArg": true, "ScheduleCancelable": true, "ScheduleCancelableArg": true,
	"After": true, "AfterArg": true, "Post": true, "Send": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Encode": true, "Publish": true,
}

func pkgExempt(path string) bool {
	for _, p := range goroutinePkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	parents := analysis.Parents(pass.Files)
	goExempt := pkgExempt(pass.Pkg.Path())

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goExempt {
					pass.Report(analysis.Diagnostic{
						Pos:      n.Pos(),
						Category: "goroutine",
						Message: fmt.Sprintf("goroutine launched in deterministic package %s: only runner and serve may create goroutines; schedule through the engine instead",
							pass.Pkg.Path()),
					})
				}
			case *ast.CallExpr:
				checkWallclock(pass, parents, n)
			case *ast.RangeStmt:
				checkMapRange(pass, parents, n)
			}
			return true
		})
	}

	for _, d := range pass.Ann.Unused(analysis.KindWallTime) {
		pass.Report(analysis.Diagnostic{
			Pos:      d.Pos,
			Category: "stale-annotation",
			Message:  "stale //snvet:wallclock annotation: no wall-clock or global math/rand use on the lines it covers",
		})
	}
	return nil
}

// checkWallclock flags calls to time.Now/Since/Until and package-level
// math/rand functions outside //snvet:wallclock coverage.
func checkWallclock(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. *rand.Rand.Intn, time.Time.Sub) are fine
	}
	var what string
	switch obj.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			what = "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewZipf...) build seeded local
		// generators — the deterministic pattern; only the package-level
		// functions reading the global source are flagged.
		if !strings.HasPrefix(fn.Name(), "New") {
			what = "global " + obj.Pkg().Path() + "." + fn.Name()
		}
	}
	if what == "" {
		return
	}
	if pass.Ann.Allowed(call.Pos(), analysis.EnclosingFunc(parents, call), analysis.KindWallTime) {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:      call.Pos(),
		Category: "wallclock",
		Message:  fmt.Sprintf("%s in deterministic package %s: results must not depend on wall-clock or process-global random state (annotate the line //snvet:wallclock with a reason if intentional)", what, pass.Pkg.Path()),
		SuggestedFixes: []analysis.SuggestedFix{{
			Message: "annotate the line with //snvet:wallclock",
			TextEdits: []analysis.TextEdit{{
				Pos:     analysis.LineEnd(pass.Fset, call.Pos()),
				End:     analysis.LineEnd(pass.Fset, call.Pos()),
				NewText: []byte(" //snvet:wallclock FIXME justify"),
			}},
		}},
	})
}

// checkMapRange flags map iterations whose body feeds an order-
// sensitive sink.
func checkMapRange(pass *analysis.Pass, parents map[ast.Node]ast.Node, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	mt, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return
	}
	sink, sinkDesc, appended := findOrderSink(pass, rs)
	if sink == nil {
		return
	}
	// The sanctioned sort pattern: a loop that only collects keys into a
	// slice later passed to a sorting call is deterministic.
	if appended != nil && sortedAfter(pass, parents, rs, appended) {
		return
	}
	diag := analysis.Diagnostic{
		Pos:      rs.Pos(),
		Category: "map-order",
		Message: fmt.Sprintf("map iteration feeds %s: map order is randomized, so this breaks byte-identical reports; iterate sorted keys instead",
			sinkDesc),
	}
	if fix, ok := sortedKeysFix(pass, rs, mt); ok {
		diag.SuggestedFixes = []analysis.SuggestedFix{fix}
	}
	pass.Report(diag)
}

// findOrderSink scans the loop body for the first order-sensitive sink.
// appended reports the outer slice variable receiving appends, if that
// is the sink (for the sorted-after exemption).
func findOrderSink(pass *analysis.Pass, rs *ast.RangeStmt) (sink ast.Node, desc string, appended types.Object) {
	outer := func(id *ast.Ident) types.Object {
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil || obj.Pos() == token.NoPos {
			return nil
		}
		if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
			return nil // loop-local
		}
		return obj
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if ok && isBuiltin(pass, call, "append") && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := outer(id); obj != nil {
							sink, desc, appended = n, fmt.Sprintf("an append to %q declared outside the loop", id.Name), obj
							return false
						}
					}
				}
			}
			// String accumulation onto an outer variable.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					if obj := outer(id); obj != nil && isString(obj.Type()) {
						sink, desc = n, fmt.Sprintf("string concatenation onto %q declared outside the loop", id.Name)
						return false
					}
				}
			}
		case *ast.CallExpr:
			var name string
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			case *ast.Ident:
				name = fun.Name
			}
			if orderSinks[name] {
				sink, desc = n, fmt.Sprintf("a call to %s", name)
				return false
			}
		}
		return true
	})
	return sink, desc, appended
}

// sortedAfter reports whether obj is passed to a sort/slices sorting
// call in a statement after rs within the enclosing block.
func sortedAfter(pass *analysis.Pass, parents map[ast.Node]ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	block, _ := parents[rs].(*ast.BlockStmt)
	if block == nil {
		if caseClause, ok := parents[rs].(*ast.CaseClause); ok {
			block = &ast.BlockStmt{List: caseClause.Body}
		} else {
			return false
		}
	}
	after := false
	for _, st := range block.List {
		if st == ast.Stmt(rs) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fobj := pass.TypesInfo.Uses[sel.Sel]
			if fobj == nil || fobj.Pkg() == nil {
				return true
			}
			switch fobj.Pkg().Path() {
			case "sort", "slices":
			default:
				return true
			}
			if !strings.Contains(fobj.Name(), "Sort") && fobj.Name() != "Strings" && fobj.Name() != "Ints" {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// sortedKeysFix builds the mechanical sorted-iteration rewrite for the
// simple case: `for k := range m` over a string-keyed map held in a
// plain identifier or selector, in a file that already imports "sort".
// The loop header is replaced with iteration over an inline
// sorted-key-slice builder; the body is untouched.
func sortedKeysFix(pass *analysis.Pass, rs *ast.RangeStmt, mt *types.Map) (analysis.SuggestedFix, bool) {
	var zero analysis.SuggestedFix
	if !isString(mt.Key()) || rs.Value != nil || rs.Tok != token.DEFINE {
		return zero, false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return zero, false
	}
	var mapSrc string
	switch x := rs.X.(type) {
	case *ast.Ident:
		mapSrc = x.Name
	case *ast.SelectorExpr:
		if base, ok := x.X.(*ast.Ident); ok {
			mapSrc = base.Name + "." + x.Sel.Name
		}
	}
	if mapSrc == "" {
		return zero, false
	}
	file := enclosingFile(pass, rs.Pos())
	if file == nil || !importsPath(file, "sort") {
		return zero, false
	}
	indent := lineIndent(pass.Fset, rs.Pos())
	header := fmt.Sprintf(
		"for _, %s := range func() []string {\n"+
			"%s\tsnvetKeys := make([]string, 0, len(%s))\n"+
			"%s\tfor snvetK := range %s {\n"+
			"%s\t\tsnvetKeys = append(snvetKeys, snvetK)\n"+
			"%s\t}\n"+
			"%s\tsort.Strings(snvetKeys)\n"+
			"%s\treturn snvetKeys\n"+
			"%s}() {",
		key.Name, indent, mapSrc, indent, mapSrc, indent, indent, indent, indent, indent)
	return analysis.SuggestedFix{
		Message: "iterate the map's keys in sorted order",
		TextEdits: []analysis.TextEdit{{
			Pos:     rs.For,
			End:     rs.Body.Lbrace + 1,
			NewText: []byte(header),
		}},
	}, true
}

func enclosingFile(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

func importsPath(f *ast.File, path string) bool {
	for _, im := range f.Imports {
		if im.Path.Value == `"`+path+`"` {
			return true
		}
	}
	return false
}

// lineIndent reproduces the statement's leading indentation, assuming
// gofmt's tabs (the column of the statement's first token).
func lineIndent(fset *token.FileSet, pos token.Pos) string {
	col := fset.Position(pos).Column
	if col < 1 {
		col = 1
	}
	return strings.Repeat("\t", col-1)
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
