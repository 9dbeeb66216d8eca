// Package analysis is a self-contained static-analysis framework shaped
// after golang.org/x/tools/go/analysis, built only on the standard
// library so the repository carries no external dependencies. It exists
// to host the snvet analyzers (detlint, poolcheck, allocfree) that
// statically enforce the contracts the rest of the system otherwise only
// checks dynamically: deterministic reports at any worker count,
// allocation-free hot paths, and exactly-once pooled-message release.
//
// The API mirrors go/analysis closely — Analyzer, Pass, Diagnostic,
// SuggestedFix — so the analyzers port to the upstream driver unchanged
// if the dependency ever becomes available. Packages under analysis are
// loaded through `go list -export`, which yields compiler export data
// for every dependency; the analyzed package itself is type-checked from
// source so the analyzers see full ASTs with comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line. It must be a valid Go identifier.
	Name string
	// Doc is the analyzer's help text; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Ann indexes the package's //snvet: annotations.
	Ann *Annotations

	// Report emits one diagnostic.
	Report func(Diagnostic)
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional
	Category string    // optional machine-readable kind
	Message  string

	// SuggestedFixes are mechanical remediations -fix can apply.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained remediation: applying all its edits
// produces the fixed source.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces [Pos, End) with NewText. Pos == End inserts.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Finding pairs a diagnostic with its position and analyzer, resolved
// for presentation; the driver and tests both consume it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Diag     Diagnostic
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Diag.Message)
}
