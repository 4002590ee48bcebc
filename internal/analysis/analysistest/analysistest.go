// Package analysistest runs one analyzer over a testdata source tree and
// diffs its findings (after //lint:allow filtering, which is therefore also
// under test) against // want expectations embedded in the sources.
//
// Layout mirrors x/tools/go/analysis/analysistest: each package under
// <testdata>/src/<name> is loaded as import path <name>, so analyzers that
// key on the final import-path segment (noclock, errwrap) can be pointed at
// stand-in packages named chiller, uplink, etc. Testdata packages may import
// the standard library (resolved via `go list -export`) and sibling testdata
// packages (type-checked from source).
//
// Expectation syntax, in a trailing comment:
//
//	bad := a == b // want "exact =="
//
// Each `want` keyword may carry a line offset and is followed by one or more
// quoted regexps, each of which must match the message of a distinct finding
// on the target line:
//
//	//lint:allow floateq
//	bad := a == b // want "exact ==" want-1 "carries no reason"
//
// Findings with no matching want, and wants with no matching finding, fail
// the test.
package analysistest

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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// Run loads each named package from testdata/src and checks analyzer a's
// findings against the packages' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPkg(t, testdata, a, pkg)
	}
}

// RunModule loads every named package from testdata/src into one module-wide
// pass and checks an interprocedural analyzer's findings against the want
// comments across all of them. List dependencies before their importers so
// cross-package references resolve to the same type-checked packages.
func RunModule(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &loader{testdata: testdata, fset: fset, pkgs: make(map[string]*types.Package)}

	var units []*analysis.Unit
	var allFiles []*ast.File
	for _, pkgPath := range pkgs {
		files, err := ld.parseDir(pkgPath)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		info := driver.NewTypesInfo()
		pkg, err := ld.check(pkgPath, files, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", pkgPath, err)
		}
		ld.pkgs[pkgPath] = pkg
		units = append(units, &analysis.Unit{
			Files: files, Pkg: pkg, TypesInfo: info, ImportPath: pkgPath,
		})
		allFiles = append(allFiles, files...)
	}

	findings, err := driver.AnalyzeModule(fset, units, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analyze %v: %v", pkgs, err)
	}

	wants := collectWants(t, fset, allFiles)
	matchFindings(t, strings.Join(pkgs, ","), findings, wants)
}

func runPkg(t *testing.T, testdata string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &loader{testdata: testdata, fset: fset, pkgs: make(map[string]*types.Package)}

	files, err := ld.parseDir(pkgPath)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	info := driver.NewTypesInfo()
	pkg, err := ld.check(pkgPath, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", pkgPath, err)
	}

	findings, err := driver.AnalyzeFiles(fset, files, pkg, info, pkgPath, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analyze %s: %v", pkgPath, err)
	}

	wants := collectWants(t, fset, files)
	matchFindings(t, pkgPath, findings, wants)
}

// want is one expected finding.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	src  token.Position // where the comment was written, for error messages
	hit  bool
}

var wantRE = regexp.MustCompile(`want([+-][0-9]+)?`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok || !strings.Contains(text, "want") {
					continue
				}
				pos := fset.Position(c.Slash)
				wants = append(wants, parseWants(t, text, pos)...)
			}
		}
	}
	return wants
}

// parseWants scans one comment for `want[±N] "re"...` groups.
func parseWants(t *testing.T, text string, pos token.Position) []*want {
	t.Helper()
	var wants []*want
	for {
		loc := wantRE.FindStringSubmatchIndex(text)
		if loc == nil {
			return wants
		}
		offset := 0
		if loc[2] >= 0 {
			offset, _ = strconv.Atoi(text[loc[2]:loc[3]])
		}
		text = text[loc[1]:]
		for {
			text = strings.TrimLeft(text, " \t")
			if len(text) == 0 || text[0] != '"' {
				break
			}
			end := strings.Index(text[1:], `"`)
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern", pos)
			}
			pat := text[1 : 1+end]
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
			}
			wants = append(wants, &want{
				file: pos.Filename,
				line: pos.Line + offset,
				re:   re,
				src:  pos,
			})
			text = text[2+end:]
		}
	}
}

func matchFindings(t *testing.T, pkgPath string, findings []driver.Finding, wants []*want) {
	t.Helper()
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", pkgPath, f)
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: no finding on %s:%d matching %q (want at %s)",
				pkgPath, filepath.Base(w.file), w.line, w.re, w.src)
		}
	}
}

// loader resolves testdata imports: sibling testdata packages from source,
// everything else from `go list -export` data.
type loader struct {
	testdata string
	fset     *token.FileSet
	pkgs     map[string]*types.Package
	// std is the one export-data importer of this load: two of them would
	// each bring their own copy of a shared dependency (maps' and slices'
	// iter.Seq would be different types).
	std types.Importer
}

func (ld *loader) parseDir(pkgPath string) ([]*ast.File, error) {
	dir := filepath.Join(ld.testdata, "src", pkgPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

func (ld *loader) check(pkgPath string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: importerFunc(ld.importPkg)}
	return conf.Check(pkgPath, ld.fset, files, info)
}

func (ld *loader) importPkg(path string) (*types.Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if _, err := os.Stat(filepath.Join(ld.testdata, "src", path)); err == nil {
		files, err := ld.parseDir(path)
		if err != nil {
			return nil, err
		}
		p, err := ld.check(path, files, driver.NewTypesInfo())
		if err != nil {
			return nil, err
		}
		ld.pkgs[path] = p
		return p, nil
	}
	if ld.std == nil {
		ld.std = stdImporter(ld.fset)
	}
	p, err := ld.std.Import(path)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = p
	return p, nil
}

// stdImporter imports standard-library packages from `go list -export`
// data. The export-file table is built once per process, on first use.
var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdErr     error
)

func stdImporter(fset *token.FileSet) types.Importer {
	stdOnce.Do(func() {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", "std")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdErr = fmt.Errorf("go list std: %w\n%s", err, stderr.String())
			return
		}
		stdExports = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				stdErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if stdErr != nil {
			return nil, stdErr
		}
		e, ok := stdExports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
