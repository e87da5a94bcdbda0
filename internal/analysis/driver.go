package analysis

import (
	"path/filepath"
	"strings"
)

// All returns the full sbvet analyzer suite in its default
// configuration.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock(nil),
		NoRand(),
		FloatEq(),
		MapOrder(),
		SeedFlow(),
		Hotpath(),
	}
}

// Run loads every package matched by patterns (resolved relative to
// dir) and applies the given analyzers: first the per-package tier on
// each requested package, then the module tier (analyzers with a
// RunModule hook) once over everything the loader pulled in.
// Diagnostics come back sorted and deduplicated, with file paths
// relative to the module root so output is stable across machines.
//
// Each package's annotations are scanned exactly once per run — the
// module tier reuses the per-package Pass — so annotation problems
// (unknown analyzer, empty reason) are reported once, not once per
// tier or per diagnostic they would have suppressed.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgDirs, err := ExpandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	passes := make(map[string]*Pass)
	var order []*Pass
	for _, d := range pkgDirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		if passes[pkg.Path] != nil {
			continue
		}
		pass := newPass(pkg)
		passes[pkg.Path] = pass
		order = append(order, pass)
	}
	for _, pass := range order {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass.analyzer = a.Name
			a.Run(pass)
		}
	}
	var mp *ModulePass
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if mp == nil {
			mp = newModulePass(l, passes)
		}
		mp.analyzer = a.Name
		a.RunModule(mp)
	}
	var diags []Diagnostic
	seen := make(map[Diagnostic]bool)
	collect := func(ds []Diagnostic) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				diags = append(diags, d)
			}
		}
	}
	for _, pass := range order {
		collect(pass.diags)
	}
	if mp != nil {
		for _, pass := range mp.quiet {
			collect(pass.diags)
		}
	}
	for i := range diags {
		if rel, err := filepath.Rel(l.ModuleRoot, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// AllowRecord is one inventoried //sbvet:allow annotation.
type AllowRecord struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

// CollectAllows loads every package matched by patterns and inventories
// its //sbvet:allow annotations (the audit surface behind `sbvet
// -allows`). Well-formed annotations come back as records sorted by
// position; malformed ones — unknown analyzer name, empty reason, bad
// syntax — come back as diagnostics, so the inventory can double as a
// staleness gate. File paths are relative to the module root.
func CollectAllows(dir string, patterns []string) ([]AllowRecord, []Diagnostic, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	pkgDirs, err := ExpandPatterns(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	rel := func(file string) string {
		if r, err := filepath.Rel(l.ModuleRoot, file); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return file
	}
	var recs []AllowRecord
	var diags []Diagnostic
	seen := make(map[string]bool)
	for _, d := range pkgDirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, nil, err
		}
		if seen[pkg.Path] {
			continue
		}
		seen[pkg.Path] = true
		pass := newPass(pkg)
		for _, f := range pkg.Files {
			file := pkg.Fset.Position(f.Pos()).Filename
			for _, m := range pass.allows[file] {
				recs = append(recs, AllowRecord{File: rel(file), Line: m.line, Analyzer: m.analyzer, Reason: m.reason})
			}
		}
		for _, dg := range pass.diags {
			dg.File = rel(dg.File)
			diags = append(diags, dg)
		}
	}
	SortAllowRecords(recs)
	SortDiagnostics(diags)
	return recs, diags, nil
}
