package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ModulePass carries the state a module-tier analyzer sees: every
// package the loader has pulled in (the requested ones plus everything
// they transitively import inside the module), the call graph over all
// of them, and one Pass per package so diagnostics honour each file's
// own //sbvet:allow annotations.
//
// Passes of requested packages are shared with the per-package tier —
// a package's annotations are scanned exactly once per run, so a
// malformed annotation is reported exactly once no matter how many
// analyzers or tiers would have consulted it. Packages that were only
// loaded as dependencies get a quiet pass: their annotation problems
// are not reported here (they belong to the run that analyzes the
// package directly), but module-tier diagnostics in them are.
type ModulePass struct {
	Graph *CallGraph

	analyzer string
	passes   map[string]*Pass // by package path, all loaded module packages
	pkgs     []*Package       // deterministic order (sorted by path)
	quiet    []*Pass          // passes created here, not shared with the per-package tier
}

// newModulePass builds the module tier over everything the loader has
// loaded, reusing the given per-package passes where one exists.
func newModulePass(l *Loader, shared map[string]*Pass) *ModulePass {
	pkgs := l.Packages()
	mp := &ModulePass{
		passes: make(map[string]*Pass, len(pkgs)),
		pkgs:   pkgs,
	}
	for _, pkg := range pkgs {
		pass := shared[pkg.Path]
		if pass == nil {
			pass = newPass(pkg)
			pass.diags = nil // quiet: annotation problems belong to the package's own run
			mp.quiet = append(mp.quiet, pass)
		}
		mp.passes[pkg.Path] = pass
	}
	mp.Graph = BuildCallGraph(pkgs)
	return mp
}

// Packages returns every loaded module package in deterministic order.
func (mp *ModulePass) Packages() []*Package { return mp.pkgs }

// Reportf records a diagnostic for the running module analyzer at a
// position inside pkg, honouring that file's allow annotations.
func (mp *ModulePass) Reportf(pkg *Package, at token.Pos, format string, args ...any) {
	pass := mp.passes[pkg.Path]
	pass.analyzer = mp.analyzer
	pass.Reportf(at, format, args...)
}

// HotRoots resolves every //sbvet:hotpath directive to its call-graph
// node. A directive marks the function declaration it is attached to —
// in the doc comment, on the `func` line itself, or on the line
// directly above — or, the same way, a function literal (for hot
// callbacks built on cold paths). Directives that mark nothing are
// reported so a drifted annotation cannot silently drop a root.
func (mp *ModulePass) HotRoots() []*FuncNode {
	var roots []*FuncNode
	for _, pkg := range mp.pkgs {
		pass := mp.passes[pkg.Path]
		claimed := make(map[string]map[int]bool) // filename -> mark line -> used
		claim := func(file string, line int) {
			if claimed[file] == nil {
				claimed[file] = make(map[int]bool)
			}
			claimed[file][line] = true
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch d := node.(type) {
				case *ast.FuncDecl:
					if file, line, ok := pass.hotRootMark(d.Doc, d.Pos()); ok {
						claim(file, line)
						if f, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
							if n := mp.Graph.NodeOf(f); n != nil {
								roots = append(roots, n)
							}
						}
					}
				case *ast.FuncLit:
					if file, line, ok := pass.hotRootMark(nil, d.Pos()); ok {
						claim(file, line)
						if n := mp.Graph.LitNode(d); n != nil {
							roots = append(roots, n)
						}
					}
				}
				return true
			})
		}
		// Every directive must have marked something.
		for _, f := range pkg.Files {
			file := pass.Fset.Position(f.Pos()).Filename
			for _, line := range pass.hotRoots[file] {
				if !claimed[file][line] {
					pass.analyzer = mp.analyzer
					pass.addDiag(token.Position{Filename: file, Line: line, Column: 1}, "sbvet",
						"//sbvet:hotpath directive marks no function; attach it to a func declaration or literal")
				}
			}
		}
	}
	// Deterministic root order regardless of discovery order.
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name() < roots[j].Name() })
	return roots
}

// hotRootMark reports whether a //sbvet:hotpath directive attaches to a
// function whose `func` token is at fn: a mark inside the doc comment
// doc (if any), on fn's own line, or on the line directly above. It
// returns the file and mark line so callers can account for consumed
// directives.
func (p *Pass) hotRootMark(doc *ast.CommentGroup, fn token.Pos) (string, int, bool) {
	pos := p.Fset.Position(fn)
	lines := p.hotRoots[pos.Filename]
	if len(lines) == 0 {
		return "", 0, false
	}
	lo, hi := pos.Line-1, pos.Line
	if doc != nil {
		if dl := p.Fset.Position(doc.Pos()).Line; dl < lo {
			lo = dl
		}
	}
	for _, l := range lines {
		if l >= lo && l <= hi {
			return pos.Filename, l, true
		}
	}
	return "", 0, false
}
