// Package noclock bans ambient wall-clock and global-randomness access in
// MPROS's deterministic packages.
//
// E1/E2 reproduce the paper's Dempster-Shafer and prognostic-fusion numbers
// exactly, and E3/E4 demand bit-identical SBFR machine behaviour; a stray
// time.Now or a global-source rand call in those paths compiles fine and only
// fails probabilistically. Simulation and algorithm packages must take ticks,
// an injected clock func, or a seeded *rand.Rand instead.
package noclock

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the noclock check.
var Analyzer = &analysis.Analyzer{
	Name: "noclock",
	Doc: "forbid time.Now/time.Sleep and global math/rand in deterministic packages; " +
		"inject a clock or a seeded *rand.Rand",
	Run: run,
}

// DeterministicPkgs names the packages (by final import-path segment) whose
// outputs must be a pure function of their inputs and seeds.
var DeterministicPkgs = map[string]bool{
	"chiller":     true,
	"sbfr":        true,
	"dempster":    true,
	"dsp":         true,
	"wavelet":     true,
	"wnn":         true,
	"fuzzy":       true,
	"experiments": true,
	// health judges staleness against an injected clock or an event-time
	// watermark; reading the wall clock would make fused beliefs depend on
	// when a test runs.
	"health": true,
	// serving's cache validity must be judged by the health registry's clock
	// (injected or event-time), never the wall clock: the coherence property
	// (cached == fresh recompute, bit for bit) only holds if nothing in the
	// tier observes real time.
	"serving": true,
	// shard routing, failover, and aggregation must replay identically from
	// journals and seeds: ring placement, staleness discounting, and global
	// rankings all derive from event time and injected clocks, never the
	// wall clock.
	"shard": true,
	// oosm is the event model every fusion event goes through, between two
	// packages already under the discipline: an event says what changed, and
	// when is the report's own timestamp, never the wall clock's.
	"oosm": true,
}

// ScopePrefixes extends the clock discipline to whole subtrees by import
// path. Command mains and the analysis tree itself are in scope: a main that
// reads the wall clock must say why with a //lint:allow, and the analyzers
// must stay reproducible (a timestamp in a finding would break golden
// output).
var ScopePrefixes = []string{
	"repro/internal/analysis",
	"repro/cmd",
}

func inScope(importPath string) bool {
	if DeterministicPkgs[analysis.PathSegment(importPath)] {
		return true
	}
	for _, p := range ScopePrefixes {
		if analysis.UnderPath(importPath, p) {
			return true
		}
	}
	return false
}

// bannedTime lists the package-level time functions that read or wait on the
// wall clock. time.Duration arithmetic and constants stay legal.
var bannedTime = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// allowedRand lists the package-level math/rand constructors that produce
// explicitly seeded generators; every other package-level function draws from
// the process-global source.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s in deterministic package %s; inject a clock (pass ticks or a now func)",
						fn.Name(), analysis.PathSegment(pass.ImportPath))
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"global rand.%s in deterministic package %s; use a seeded *rand.Rand",
						fn.Name(), analysis.PathSegment(pass.ImportPath))
				}
			}
			return true
		})
	}
	return nil
}
