package driver

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strings"

	"repro/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	ForTest    string
	Module     *struct {
		Path      string
		Main      bool
		GoVersion string
	}
}

// LoadAndRun loads the packages matching patterns (plus their in-package and
// external test units) with export data via `go list`, runs the analyzers
// over every unit belonging to the main module, and returns the surviving
// findings. dir is the working directory for go list ("" for the current).
// All units are loaded and type-checked first, then the analyzers run — the
// interprocedural ones (Analyzer.RunModule) see every unit at once.
func LoadAndRun(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// An in-package test unit "p [p.test]" compiles p's GoFiles plus its
	// TestGoFiles, so when one exists the plain unit is a strict subset and
	// analyzing it again would duplicate every finding.
	augmented := make(map[string]bool)
	for _, p := range pkgs {
		if p.ForTest != "" && p.Name != "main" && !strings.HasSuffix(p.Name, "_test") {
			augmented[p.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	var units []*analysis.Unit
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || !p.Module.Main || len(p.GoFiles) == 0 {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // synthesized test main
		}
		if p.ForTest == "" && augmented[p.ImportPath] {
			continue
		}
		u, err := loadListUnit(fset, p, exports)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return AnalyzeModule(fset, units, analyzers)
}

func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{
		"list", "-test", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,GoFiles,ImportMap,Standard,ForTest,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func loadListUnit(fset *token.FileSet, p *listPackage, exports map[string]string) (*analysis.Unit, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	compilerImporter := importer.ForCompiler(fset, "gc", lookup)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := p.ImportMap[importPath]; ok {
			importPath = mapped
		}
		return compilerImporter.Import(importPath)
	})

	conf := types.Config{Importer: imp}
	if p.Module != nil && p.Module.GoVersion != "" {
		conf.GoVersion = "go" + p.Module.GoVersion
	}
	info := NewTypesInfo()
	cleanPath := p.ImportPath
	if i := strings.Index(cleanPath, " ["); i >= 0 {
		cleanPath = cleanPath[:i]
	}
	pkg, err := conf.Check(cleanPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &analysis.Unit{Files: files, Pkg: pkg, TypesInfo: info, ImportPath: cleanPath}, nil
}

// NewTypesInfo returns a types.Info with every map populated, as the
// analyzers expect.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// importerFunc adapts a function to types.Importer, exactly as unitchecker
// does.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
