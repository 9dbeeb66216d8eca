package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	Ann       *Annotations
}

// Loader loads packages for analysis. Module packages come from
// `go list -export -deps`: the target is parsed and type-checked from
// source (full ASTs with comments), every dependency is imported from
// the compiler's export data, so loading needs no network and no
// external tooling beyond the Go toolchain itself. Fixture trees
// (analysistest's testdata/src) are resolved from source recursively,
// with standard-library imports still served from export data.
type Loader struct {
	// Dir is the working directory for `go` invocations; it must lie
	// inside the module. Empty means the process working directory.
	Dir string

	fset    *token.FileSet
	exports map[string]string // import path -> export-data file
	gc      types.ImporterFrom
	srcPkgs map[string]*Package // fixture packages by import path
	srcRoot string              // fixture source root ("" in module mode)
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		srcPkgs: map[string]*Package{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookup).(types.ImporterFrom)
	return l
}

// lookup serves export data to the gc importer.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := l.exports[path]
	if !ok || f == "" {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(f)
}

// listEntry is the subset of `go list -json` snvet consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` over args and records every
// package's export data, returning the entries in listing order.
func (l *Loader) goList(args []string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,CgoFiles,Export,Standard,DepOnly,Error",
		"--",
	}, args...)...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var entries []listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if e.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			l.exports[e.ImportPath] = e.Export
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Load loads the module packages matching patterns (e.g. "./...") and
// returns them parsed, type-checked, and annotation-indexed.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	entries, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, e := range entries {
		if e.DepOnly || e.Standard {
			continue
		}
		if len(e.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, unsupported", e.ImportPath)
		}
		p, err := l.check(e.ImportPath, e.Dir, e.GoFiles, l.gc)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadFixtures loads the named fixture packages from a GOPATH-style
// source root (srcRoot/<importPath>/*.go). Imports resolve first
// against the fixture tree, then against the standard library.
func (l *Loader) LoadFixtures(srcRoot string, importPaths ...string) ([]*Package, error) {
	l.srcRoot = srcRoot
	if err := l.prefetchStdExports(srcRoot); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, ip := range importPaths {
		p, err := l.fixturePkg(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// prefetchStdExports scans the whole fixture tree for imports that do
// not resolve locally and fetches their export data in one go list run.
func (l *Loader) prefetchStdExports(srcRoot string) error {
	std := map[string]bool{}
	err := filepath.Walk(srcRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, perr := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if perr != nil {
			return fmt.Errorf("parsing %s: %v", path, perr)
		}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if ip == "" || ip == "unsafe" {
				continue
			}
			if st, err := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(ip))); err == nil && st.IsDir() {
				continue // fixture-local
			}
			std[ip] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(std) == 0 {
		return nil
	}
	paths := make([]string, 0, len(std))
	for ip := range std {
		if _, done := l.exports[ip]; !done {
			paths = append(paths, ip)
		}
	}
	if len(paths) == 0 {
		return nil
	}
	sort.Strings(paths)
	_, err = l.goList(paths)
	return err
}

// fixtureImporter resolves fixture-local imports from source and
// everything else from export data.
type fixtureImporter struct{ l *Loader }

func (im fixtureImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im fixtureImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	local := filepath.Join(im.l.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(local); err == nil && st.IsDir() {
		p, err := im.l.fixturePkg(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return im.l.gc.ImportFrom(path, dir, 0)
}

// fixturePkg loads one fixture package from source, memoized.
func (l *Loader) fixturePkg(importPath string) (*Package, error) {
	if p, ok := l.srcPkgs[importPath]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(importPath))
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: %v", importPath, err)
	}
	var names []string
	for _, de := range des {
		n := de.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: fixture %s: no Go files in %s", importPath, dir)
	}
	p, err := l.check(importPath, dir, names, fixtureImporter{l})
	if err != nil {
		return nil, err
	}
	l.srcPkgs[importPath] = p
	return p, nil
}

// check parses and type-checks one package from source.
func (l *Loader) check(importPath, dir string, fileNames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v (and %d more)", importPath, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{
		PkgPath:   importPath,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		Ann:       CollectAnnotations(l.fset, files),
	}, nil
}

// Run applies analyzers to pkgs and returns the findings sorted by
// position.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Ann:       pkg.Ann,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Diag:     d,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := findings[i].Pos, findings[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
