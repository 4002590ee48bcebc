package driver_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/noclock"
	"repro/internal/analysis/sendblock"
	"repro/internal/analysis/waldiscipline"
)

var all = []*analysis.Analyzer{
	noclock.Analyzer,
	floateq.Analyzer,
	errwrap.Analyzer,
	maporder.Analyzer,
	atomicfield.Analyzer,
	lockdiscipline.Analyzer,
	waldiscipline.Analyzer,
	hotalloc.Analyzer,
	goroleak.Analyzer,
	sendblock.Analyzer,
}

// TestRepoIsClean is the clean-sweep guarantee: the whole module (test units
// included) must carry zero mproslint findings, and every //lint:allow must
// be reasoned and live. CI enforces the same via cmd/mproslint; this test
// keeps `go test ./...` sufficient locally.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := driver.LoadAndRun("", []string{"repro/..."}, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestFindingInPackageAndTestUnitReportedOnce: go list loads a package's
// non-test files twice, in the package and in its test unit, and a finding in
// them is one fault: it is reported once.
func TestFindingInPackageAndTestUnitReportedOnce(t *testing.T) {
	const src = `package p

func same(a, b float64) bool { return a == b }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := driver.NewTypesInfo()
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	units := []*analysis.Unit{
		{Files: []*ast.File{file}, Pkg: pkg, TypesInfo: info, ImportPath: "p"},
		{Files: []*ast.File{file}, Pkg: pkg, TypesInfo: info, ImportPath: "p"}, // the test unit
	}
	findings, err := driver.AnalyzeModule(fset, units, []*analysis.Analyzer{floateq.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Errorf("%d findings for one a == b, want 1: %v", len(findings), findings)
	}
}
