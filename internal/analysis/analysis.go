// Package analysis is a stdlib-only reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for MPROS's own lint suite.
//
// The repo's invariants — deterministic simulation packages, tolerance-based
// float comparison, wrapped errors on recovery paths, unit-sum Dempster-Shafer
// masses — are enforced by analyzers built on this package and run by
// cmd/mproslint (mproslint ./...) over the whole module, test units included.
// The API deliberately mirrors x/tools so the analyzers could be ported to
// the upstream framework by changing imports only; the build environment for
// this repo is offline, so the framework itself lives here.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. An analyzer is either intraprocedural
// (Run, invoked once per package unit) or interprocedural (RunModule, invoked
// once with every type-checked unit of the module — the call-graph analyzers
// hotalloc, goroleak, and sendblock work this way). Exactly one of the two
// must be set. RunModule analyzers need the whole module in memory
// (mproslint ./..., driver.LoadAndRun); a single-unit run — an analyzer's own
// testdata — skips them.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package unit.
	Run func(*Pass) error
	// RunModule applies the analyzer to the whole module at once.
	RunModule func(*ModulePass) error
}

// Pass carries one package unit through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ImportPath is the build system's name for the unit with any test-unit
	// suffix ("pkg [pkg.test]") stripped, e.g. "repro/internal/dempster".
	ImportPath string

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Unit is one type-checked compilation unit of the module, as the driver
// loads it: a package (or its test-augmented variant) with files, type
// information, and the cleaned import path.
type Unit struct {
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string
}

// ModulePass carries every loaded unit through one interprocedural analyzer.
// All units share one FileSet, so positions from any unit resolve uniformly.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit

	// Report delivers one diagnostic to the driver, which attributes it to
	// the containing file for //lint:allow filtering.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Function annotations. A directive comment in a function's doc block marks
// it as a root for the interprocedural analyzers:
//
//	//mpros:hotpath   everything reachable from here must not heap-allocate
//	                  (hotalloc) and must not block on channel sends
//	                  (sendblock)
//	//mpros:ingest    everything reachable from here must not block on
//	                  channel sends (sendblock only — ingest paths may
//	                  allocate, they just may never wedge on a slow consumer)
const (
	AnnotationHotPath = "hotpath"
	AnnotationIngest  = "ingest"
)

// Annotations extracts the //mpros: directives from a doc comment group.
// Returns nil when there are none.
func Annotations(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	var out map[string]bool
	for _, c := range doc.List {
		rest, ok := cutPrefix(c.Text, "//mpros:")
		if !ok {
			continue
		}
		name := rest
		for i := 0; i < len(rest); i++ {
			if rest[i] == ' ' || rest[i] == '\t' {
				name = rest[:i]
				break
			}
		}
		if name == "" {
			continue
		}
		if out == nil {
			out = make(map[string]bool, 1)
		}
		out[name] = true
	}
	return out
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

// PathSegment returns the last slash-separated segment of an import path —
// analyzers use it to recognize repo packages by name regardless of the
// module prefix.
func PathSegment(importPath string) string {
	for i := len(importPath) - 1; i >= 0; i-- {
		if importPath[i] == '/' {
			return importPath[i+1:]
		}
	}
	return importPath
}

// UnderPath reports whether importPath is prefix itself or a package in its
// subtree — the segment-independent way to scope an analyzer to a whole
// directory tree (e.g. everything under internal/analysis, however deep).
func UnderPath(importPath, prefix string) bool {
	if len(importPath) < len(prefix) || importPath[:len(prefix)] != prefix {
		return false
	}
	return len(importPath) == len(prefix) || importPath[len(prefix)] == '/'
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	name := fset.Position(pos).Filename
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
