package analysis

import "go/ast"

// DefaultSimPackages lists the packages whose behaviour must be a pure
// function of the seed: everything that executes during a simulated
// run. Wall-clock reads inside them make results irreproducible, so
// the wallclock analyzer forbids time.Now/time.Since there. Host-side
// timing belongs at the cmd/ and examples/ boundary, or behind
// core.Clock with an annotated RealClock implementation.
var DefaultSimPackages = []string{
	"smartbalance/internal/core",
	"smartbalance/internal/perfmodel",
	"smartbalance/internal/powermodel",
	"smartbalance/internal/balancer",
	"smartbalance/internal/workload",
	"smartbalance/internal/kernel",
	"smartbalance/internal/machine",
	"smartbalance/internal/hpc",
	"smartbalance/internal/pelt",
	"smartbalance/internal/rng",
	"smartbalance/internal/thermal",
	"smartbalance/internal/exp",
	"smartbalance/internal/sweep",
	"smartbalance/internal/fault",
	"smartbalance/internal/telemetry",
	"smartbalance/internal/fleet",
	"smartbalance/internal/hunt",
	"smartbalance/internal/contention",
	"smartbalance/internal/scenario",
	"smartbalance/internal/param",
}

// Wallclock returns the analyzer forbidding time.Now and time.Since in
// simulation packages. simPkgs overrides the package set (nil selects
// DefaultSimPackages); tests use this to point the analyzer at fixture
// packages.
func Wallclock(simPkgs []string) *Analyzer {
	if simPkgs == nil {
		simPkgs = DefaultSimPackages
	}
	return &Analyzer{
		Name: "wallclock",
		Doc:  "forbid time.Now/time.Since in simulation packages; results must be functions of the seed",
		Run: func(pass *Pass) {
			if !underAny(pass.PkgPath, simPkgs) {
				return
			}
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					for _, name := range [...]string{"Now", "Since"} {
						if pass.importedFunc(sel, "time", name) {
							pass.Reportf(call.Pos(),
								"time.%s in simulation package %s: results must be deterministic in the seed; inject core.Clock or move the read to the cmd/ boundary",
								name, pass.PkgPath)
						}
					}
					return true
				})
			}
		},
	}
}
