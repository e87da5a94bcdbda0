// Package analysis implements sbvet, the repository's own static
// analyzer. It enforces the invariants the Go compiler cannot check but
// the reproduction depends on: every simulation result must be a
// deterministic function of the seed (DESIGN.md §6), and the epoch hot
// path must not allocate. Lock copies are go vet's copylocks check.
//
// The package is deliberately stdlib-only (go/ast, go/parser, go/token,
// go/types): the build must work offline, so the usual
// golang.org/x/tools analysis framework is off the table. What ships
// instead is a small re-implementation of the same shape — a loader
// that parses and type-checks packages of this module, a Pass carrying
// the per-package state, and a set of Analyzer values that walk the
// AST and report Diagnostics.
//
// Findings can be suppressed at the call site with an annotated reason:
//
//	t := time.Now() //sbvet:allow wallclock(host-side benchmark boundary)
//
// The annotation must name the analyzer and carry a non-empty reason in
// parentheses; it applies to diagnostics on its own line or the line
// directly below it. Malformed annotations are themselves reported
// (analyzer name "sbvet") so typos cannot silently disable a check.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer at one source position.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the canonical file:line: analyzer: message form used
// by the CLI and the golden tests.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Analyzer is one sbvet check: a name (used in enable flags and allow
// annotations), a one-line contract, and exactly one of two run hooks.
// Run inspects a single type-checked package through its Pass;
// RunModule sees every loaded package of the module at once through a
// ModulePass (with its call graph), for checks whose facts must cross
// package boundaries.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// knownAnalyzerNames is the closed set of names valid in
// //sbvet:allow annotations. Kept as a literal (rather than derived
// from All) so Pass construction needs no analyzer instances.
var knownAnalyzerNames = map[string]bool{
	"wallclock": true,
	"norand":    true,
	"floateq":   true,
	"maporder":  true,
	"seedflow":  true,
	"hotpath":   true,
}

// allowMark is one parsed //sbvet:allow annotation.
type allowMark struct {
	line     int
	col      int
	analyzer string
	reason   string
}

// Pass carries the state one analyzer sees for one package: the parsed
// files, the type information, and the diagnostic sink with its
// suppression table.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	analyzer   string                 // name of the analyzer currently running
	allows     map[string][]allowMark // filename -> annotations in that file
	hotRoots   map[string][]int       // filename -> lines of //sbvet:hotpath marks
	diags      []Diagnostic
	Suppressed int // diagnostics silenced by a valid allow annotation
}

// newPass builds the Pass for a loaded package, scanning every comment
// for sbvet annotations. Malformed annotations are reported immediately
// under the pseudo-analyzer name "sbvet".
func newPass(pkg *Package) *Pass {
	p := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		PkgPath:  pkg.Path,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		allows:   make(map[string][]allowMark),
		hotRoots: make(map[string][]int),
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p.scanComment(c)
			}
		}
	}
	return p
}

// scanComment parses a single comment for an sbvet directive.
func (p *Pass) scanComment(c *ast.Comment) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, "sbvet:") {
		return
	}
	pos := p.Fset.Position(c.Slash)
	rest := strings.TrimPrefix(text, "sbvet:")
	if strings.TrimSpace(rest) == "hotpath" {
		p.hotRoots[pos.Filename] = append(p.hotRoots[pos.Filename], pos.Line)
		return
	}
	if !strings.HasPrefix(rest, "allow ") {
		p.addDiag(pos, "sbvet", fmt.Sprintf("malformed sbvet directive %q: only //sbvet:allow name(reason) and //sbvet:hotpath are recognised", c.Text))
		return
	}
	spec := strings.TrimSpace(strings.TrimPrefix(rest, "allow "))
	open := strings.IndexByte(spec, '(')
	if open <= 0 || !strings.HasSuffix(spec, ")") {
		p.addDiag(pos, "sbvet", fmt.Sprintf("malformed allow annotation %q: want //sbvet:allow name(reason)", c.Text))
		return
	}
	name := spec[:open]
	reason := strings.TrimSpace(spec[open+1 : len(spec)-1])
	if !knownAnalyzerNames[name] {
		p.addDiag(pos, "sbvet", fmt.Sprintf("allow annotation names unknown analyzer %q", name))
		return
	}
	if reason == "" {
		p.addDiag(pos, "sbvet", fmt.Sprintf("allow annotation for %q has an empty reason; justify the suppression", name))
		return
	}
	p.allows[pos.Filename] = append(p.allows[pos.Filename], allowMark{line: pos.Line, col: pos.Column, analyzer: name, reason: reason})
}

// allowed reports whether a diagnostic of the running analyzer at the
// given position is suppressed: a valid annotation on the same line or
// on the line directly above covers it.
func (p *Pass) allowed(pos token.Position) bool {
	for _, m := range p.allows[pos.Filename] {
		if m.analyzer == p.analyzer && (m.line == pos.Line || m.line == pos.Line-1) {
			return true
		}
	}
	return false
}

// Reportf records a diagnostic for the running analyzer unless an allow
// annotation covers the position.
func (p *Pass) Reportf(at token.Pos, format string, args ...any) {
	pos := p.Fset.Position(at)
	if p.allowed(pos) {
		p.Suppressed++
		return
	}
	p.addDiag(pos, p.analyzer, fmt.Sprintf(format, args...))
}

func (p *Pass) addDiag(pos token.Position, analyzer, msg string) {
	p.diags = append(p.diags, Diagnostic{
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Analyzer: analyzer,
		Message:  msg,
	})
}

// importedFunc reports whether sel denotes pkgPath.name via a plain
// package qualifier (e.g. time.Now where "time" really is the time
// package, not a local variable shadowing it).
func (p *Pass) importedFunc(sel *ast.SelectorExpr, pkgPath, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// Analyze runs the given analyzers' per-package tier over one loaded
// package and returns the diagnostics, sorted by position. Module-tier
// analyzers are skipped (use Run, which sees the whole module).
// Annotation-parsing problems are included regardless of which
// analyzers are enabled.
func Analyze(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	pass := newPass(pkg)
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass.analyzer = a.Name
		a.Run(pass)
	}
	SortDiagnostics(pass.diags)
	return pass.diags
}

// SortDiagnostics orders diagnostics by file, line, column, and
// analyzer name so output is deterministic.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// SortAllowRecords orders allow records by file, line, and analyzer so
// inventories are deterministic.
func SortAllowRecords(rs []AllowRecord) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// underAny reports whether pkgPath is one of the given package paths or
// nested below one of them.
func underAny(pkgPath string, roots []string) bool {
	for _, r := range roots {
		if pkgPath == r || strings.HasPrefix(pkgPath, r+"/") {
			return true
		}
	}
	return false
}
