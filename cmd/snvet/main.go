// Command snvet runs the repository's custom static analyzers — the
// checks that enforce contracts `go vet` cannot know about:
//
//	detlint    nondeterminism in the deterministic packages (map-order
//	           dependent output, unannotated wall-clock reads, stray
//	           goroutines)
//	poolcheck  msg.Alloc results that leak on some path
//	allocfree  allocations in //snvet:alloc-free hot paths
//
// detlint is scoped to the packages whose output must be bit-identical
// at any worker count; the other two run everywhere.
//
//	snvet [-json] [-fix] [packages]
//
// Exit status is 1 if any diagnostics were reported, 2 on operational
// failure. -json emits findings as a JSON array for tooling; -fix
// applies the mechanical suggested fixes (annotation insertion,
// sorted-keys rewrites) in place, then reports what remains.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path"
	"sort"

	"safetynet/internal/analysis"
	"safetynet/internal/analysis/allocfree"
	"safetynet/internal/analysis/detlint"
	"safetynet/internal/analysis/poolcheck"
)

// deterministicPkgs names the package basenames whose reports and
// scheduling decisions must not depend on map order, wall-clock time,
// or goroutine interleaving (ROADMAP: identical output at any
// parallelism).
var deterministicPkgs = map[string]bool{
	"sim":      true,
	"machine":  true,
	"snoop":    true,
	"network":  true,
	"campaign": true,
	"stats":    true,
	"scenario": true,
	"serve":    true,
	"harness":  true,
	"explore":  true,
	"runner":   true,
	"report":   true,
}

// jsonFinding is the -json output shape, one object per diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	fix := flag.Bool("fix", false, "apply suggested fixes in place")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snvet: %v\n", err)
		return 2
	}
	var detPkgs []*analysis.Package
	for _, p := range pkgs {
		if deterministicPkgs[path.Base(p.PkgPath)] {
			detPkgs = append(detPkgs, p)
		}
	}

	findings, err := analysis.Run(
		[]*analysis.Analyzer{poolcheck.Analyzer, allocfree.Analyzer}, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snvet: %v\n", err)
		return 2
	}
	detFindings, err := analysis.Run([]*analysis.Analyzer{detlint.Analyzer}, detPkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snvet: %v\n", err)
		return 2
	}
	findings = append(findings, detFindings...)
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := findings[i].Pos, findings[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})

	if *fix {
		var fset *token.FileSet
		if len(pkgs) > 0 {
			fset = pkgs[0].Fset
		}
		fixed, err := analysis.ApplyFixes(fset, findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snvet: applying fixes: %v\n", err)
			return 2
		}
		names := make([]string, 0, len(fixed))
		for name := range fixed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := os.WriteFile(name, fixed[name], 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "snvet: %v\n", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "snvet: rewrote %s\n", name)
		}
	}

	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Diag.Message,
				Fixable:  len(f.Diag.SuggestedFixes) > 0,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "snvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
