// Package maporder bans direct `range` over map values in the
// determinism-critical packages.
//
// Go randomizes map iteration order on purpose, and float addition is not
// associative — so any map-ordered loop that accumulates, combines, or emits
// fused values makes Ranked/Belief output depend on the scheduler. PR 6's
// cache-coherence guarantee (a serving-tier hit is bit-identical to a fresh
// fuse) and PR 7's crash-recovery guarantee (recovered state reproduces
// Ranked/Belief bit-for-bit) both rest on every such loop running in a fixed
// order. The fix that established the invariant routes iteration through a
// sorted-key accessor — dempster.Mass.FocalSets() is the model — and this
// analyzer keeps refactors from quietly reintroducing `for k := range m`.
// The standard library's map iterators are the same loop by another name:
// a range taken directly over maps.Keys, maps.Values or maps.All is reported
// too. Handing the iterator to something that orders it —
// slices.Sorted(maps.Keys(m)), the idiom the converted sites use — is not a
// range over it and stays clean, as do maps.Clone and maps.Copy, whose
// results do not depend on the order they copy in.
//
// Scope: non-test files of the packages whose outputs must be bit-
// reproducible (dempster, fusion, pdme, serving, oosm). Loops whose order
// provably cannot matter (per-key scaling, map copies, feeding a
// sort-before-use collection) are suppressed case by case with a reasoned
// //lint:allow maporder — the reason documents *why* order cannot leak out,
// which is exactly the review question a new map loop should answer.
package maporder

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "forbid direct range over maps in determinism-critical packages; " +
		"iterate a sorted-key accessor (like FocalSets) instead",
	Run: run,
}

// DeterminismPkgs names the packages (by final import-path segment) whose
// outputs must be bit-reproducible regardless of map iteration order: the
// Dempster-Shafer calculus, the fusion layers over it, the PDME that
// serves their conclusions, the read-side cache that must match them
// bit-for-bit, and the OOSM event model that drives fusion ordering.
var DeterminismPkgs = map[string]bool{
	"dempster": true,
	"fusion":   true,
	"pdme":     true,
	"serving":  true,
	"oosm":     true,
	// shard: aggregator global rankings and coverage reports must not vary
	// with map iteration over per-shard or per-pair state.
	"shard": true,
}

func run(pass *analysis.Pass) error {
	if !DeterminismPkgs[analysis.PathSegment(pass.ImportPath)] {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			what := "a map"
			if t := pass.TypesInfo.TypeOf(rng.X); t == nil {
				return true
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				if what = mapIterator(pass, rng.X); what == "" {
					return true
				}
			}
			pass.Reportf(rng.Pos(),
				"direct range over %s in determinism-critical package %s; "+
					"iterate a sorted-key accessor (like FocalSets) or justify why order cannot leak",
				what, analysis.PathSegment(pass.ImportPath))
			return true
		})
	}
	return nil
}

// mapIterator names the unordered map iterator x is a direct call of —
// maps.Keys, maps.Values or maps.All — or returns "".
func mapIterator(pass *analysis.Pass, x ast.Expr) string {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return ""
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return "maps." + fn.Name()
	}
	return ""
}
