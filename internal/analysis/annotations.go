package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //snvet: directive vocabulary. Directives are machine-checked
// comments, written exactly like //go: directives (no space after //):
//
//	//snvet:wallclock [reason]   this line/function/file may read wall-
//	                             clock time or the global math/rand state
//	                             (detlint). Stale wallclock annotations —
//	                             ones that suppress nothing — are
//	                             themselves reported.
//	//snvet:alloc-free [reason]  this function is a benchgate-tier hot
//	                             path; constructs that allocate are
//	                             reported (allocfree).
//	//snvet:alloc-ok [reason]    this line inside an alloc-free function
//	                             intentionally allocates (amortized pool
//	                             growth); allocfree skips it.
//
// A directive in a function's doc comment covers the whole function; on
// its own line it covers the next source line; trailing a statement it
// covers that line; above the package clause it covers the file.
const (
	DirPrefix    = "//snvet:"
	KindWallTime = "wallclock"
	KindNoAlloc  = "alloc-free"
	KindAllocOK  = "alloc-ok"
)

// Directive is one parsed //snvet: comment.
type Directive struct {
	Kind string
	Args string
	Pos  token.Pos
	used bool
}

// Annotations indexes a package's //snvet: directives for the three
// coverage scopes (file, function, line) and tracks which ones actually
// suppressed a diagnostic, so stale annotations can be reported.
type Annotations struct {
	fset      *token.FileSet
	fileLevel map[*token.File][]*Directive
	funcLevel map[*ast.FuncDecl][]*Directive
	byLine    map[lineKey][]*Directive
	all       []*Directive
}

type lineKey struct {
	file *token.File
	line int
}

// ParseDirective splits a //snvet: comment into kind and trailing args;
// ok is false for non-directive comments.
func ParseDirective(text string) (kind, args string, ok bool) {
	if !strings.HasPrefix(text, DirPrefix) {
		return "", "", false
	}
	rest := text[len(DirPrefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i:]), true
	}
	return rest, "", true
}

// CollectAnnotations indexes every //snvet: directive in files.
func CollectAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{
		fset:      fset,
		fileLevel: map[*token.File][]*Directive{},
		funcLevel: map[*ast.FuncDecl][]*Directive{},
		byLine:    map[lineKey][]*Directive{},
	}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		pkgLine := tf.Line(f.Package)

		// Doc-comment directives cover their function.
		docOwned := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				kind, args, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				d := &Directive{Kind: kind, Args: args, Pos: c.Pos()}
				a.funcLevel[fd] = append(a.funcLevel[fd], d)
				a.all = append(a.all, d)
				docOwned[c] = true
			}
		}

		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if docOwned[c] {
					continue
				}
				kind, args, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				d := &Directive{Kind: kind, Args: args, Pos: c.Pos()}
				a.all = append(a.all, d)
				line := tf.Line(c.Pos())
				if line < pkgLine {
					a.fileLevel[tf] = append(a.fileLevel[tf], d)
					continue
				}
				// A directive covers its own line (trailing style) and
				// the next (standalone style). The stale-annotation
				// check keeps the extra line honest: a directive that
				// suppresses nothing is itself reported.
				a.byLine[lineKey{tf, line}] = append(a.byLine[lineKey{tf, line}], d)
				a.byLine[lineKey{tf, line + 1}] = append(a.byLine[lineKey{tf, line + 1}], d)
			}
		}
	}
	return a
}

// Allowed reports whether a diagnostic of the given kind at pos inside
// fn (which may be nil) is suppressed by an annotation, marking the
// winning directive used.
func (a *Annotations) Allowed(pos token.Pos, fn *ast.FuncDecl, kind string) bool {
	tf := a.fset.File(pos)
	if tf == nil {
		return false
	}
	for _, d := range a.fileLevel[tf] {
		if d.Kind == kind {
			d.used = true
			return true
		}
	}
	if fn != nil {
		for _, d := range a.funcLevel[fn] {
			if d.Kind == kind {
				d.used = true
				return true
			}
		}
	}
	line := tf.Line(pos)
	for _, d := range a.byLine[lineKey{tf, line}] {
		if d.Kind == kind {
			d.used = true
			return true
		}
	}
	return false
}

// FuncHas reports whether fn's doc carries a directive of the given
// kind (without marking it used — presence checks, not suppressions).
func (a *Annotations) FuncHas(fn *ast.FuncDecl, kind string) bool {
	for _, d := range a.funcLevel[fn] {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// Unused returns directives of the given kind that suppressed nothing.
func (a *Annotations) Unused(kind string) []*Directive {
	var out []*Directive
	for _, d := range a.all {
		if d.Kind == kind && !d.used {
			out = append(out, d)
		}
	}
	return out
}
