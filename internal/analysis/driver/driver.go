// Package driver runs MPROS analyzers over type-checked package units and
// applies the //lint:allow suppression discipline. It backs mproslint and
// TestRepoIsClean (go list -export loading, see golist.go) and the analyzers'
// own testdata runs (analysistest, one unit at a time).
//
// Intraprocedural analyzers (Analyzer.Run) execute once per unit.
// Interprocedural analyzers (Analyzer.RunModule — the call-graph layer) need
// every unit of the module at once, so they execute after all units are
// loaded.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Finding is one reportable diagnostic, attributed to its analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// AnalyzeFiles runs the intraprocedural analyzers over one type-checked unit
// and returns the findings that survive //lint:allow filtering, plus
// lintallow findings for malformed, unknown, reasonless, or unused
// directives. importPath should be the unit's build name; any " [pkg.test]"
// suffix is stripped before analyzers see it. Module analyzers are skipped —
// they need every unit at once (see AnalyzeModule).
func AnalyzeFiles(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, importPath string, analyzers []*analysis.Analyzer) ([]Finding, error) {

	unit := &analysis.Unit{Files: files, Pkg: pkg, TypesInfo: info, ImportPath: cleanImportPath(importPath)}
	return AnalyzeModule(fset, []*analysis.Unit{unit}, onlyUnitAnalyzers(analyzers))
}

// AnalyzeModule runs all analyzers — per-unit ones over each unit,
// interprocedural ones once over the whole set — and applies the //lint:allow
// discipline across every unit's files. A package's non-test files are in its
// own unit and in its test unit too, so what they hold is found twice: each
// (analyzer, position, message) is reported once.
func AnalyzeModule(fset *token.FileSet, units []*analysis.Unit,
	analyzers []*analysis.Analyzer) ([]Finding, error) {

	known := map[string]bool{analysis.AllowName: true}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var allows []*analysis.Allow
	var findings []Finding
	for _, u := range units {
		for _, f := range u.Files {
			as, bad := analysis.ParseAllows(fset, f, known)
			allows = append(allows, as...)
			for _, d := range bad {
				findings = append(findings, Finding{
					Analyzer: analysis.AllowName,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
		}
	}

	for _, a := range analyzers {
		name := a.Name
		report := func(dst *[]Finding) func(analysis.Diagnostic) {
			return func(d analysis.Diagnostic) {
				*dst = append(*dst, Finding{
					Analyzer: name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
		}
		switch {
		case a.Run != nil:
			for _, u := range units {
				pass := &analysis.Pass{
					Analyzer:   a,
					Fset:       fset,
					Files:      u.Files,
					Pkg:        u.Pkg,
					TypesInfo:  u.TypesInfo,
					ImportPath: u.ImportPath,
					Report:     report(&findings),
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, u.ImportPath, err)
				}
			}
		case a.RunModule != nil:
			pass := &analysis.ModulePass{
				Analyzer: a,
				Fset:     fset,
				Units:    units,
				Report:   report(&findings),
			}
			if err := a.RunModule(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
			}
		default:
			return nil, fmt.Errorf("analyzer %s has neither Run nor RunModule", a.Name)
		}
	}

	kept := findings[:0]
	for _, f := range findings {
		if f.Analyzer == analysis.AllowName || !suppressed(allows, f) {
			kept = append(kept, f)
		}
	}
	findings = kept

	for _, a := range allows {
		if !a.Used {
			findings = append(findings, Finding{
				Analyzer: analysis.AllowName,
				Pos:      fset.Position(a.Pos),
				Message:  fmt.Sprintf("lint:allow %s suppresses nothing here; remove it", a.Analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return slices.Compact(findings), nil
}

// onlyUnitAnalyzers filters to the analyzers that can run on a single unit.
func onlyUnitAnalyzers(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	out := make([]*analysis.Analyzer, 0, len(analyzers))
	for _, a := range analyzers {
		if a.Run != nil {
			out = append(out, a)
		}
	}
	return out
}

func cleanImportPath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

func suppressed(allows []*analysis.Allow, f Finding) bool {
	hit := false
	for _, a := range allows {
		if a.Analyzer == f.Analyzer && a.File == f.Pos.Filename && a.Line == f.Pos.Line {
			a.Used = true
			hit = true
		}
	}
	return hit
}
