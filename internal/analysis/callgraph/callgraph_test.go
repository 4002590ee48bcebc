package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
)

const src = `package demo

import "errors"

//mpros:hotpath steady-state tick
func Root(xs []float64) (float64, error) {
	if len(xs) == 0 {
		deadEnd()
		return 0, errors.New("empty")
	}
	s := Sum(xs)
	f := func() { helperFromClosure() }
	f()
	return s, nil
}

func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += (&acc{}).add(x)
	}
	return s
}

type acc struct{ v float64 }

func (a *acc) add(x float64) float64 { a.v += x; return a.v }

func deadEnd()           {}
func helperFromClosure() {}

func Unreached() { panic("never on the hot path") }
`

func load(t *testing.T) (*token.FileSet, *analysis.Unit) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: stubImporter{}}
	pkg, err := conf.Check("demo", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, &analysis.Unit{Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info, ImportPath: "demo"}
}

// stubImporter satisfies the single "errors" import without touching the
// build cache.
type stubImporter struct{}

func (stubImporter) Import(path string) (*types.Package, error) {
	pkg := types.NewPackage(path, "errors")
	str := types.Typ[types.String]
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, pkg, "text", str)),
		types.NewTuple(types.NewVar(token.NoPos, pkg, "", errType)), false)
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "New", sig))
	pkg.MarkComplete()
	return pkg, nil
}

func TestBuildNodesAndAnnotations(t *testing.T) {
	fset, unit := load(t)
	g := Build(fset, []*analysis.Unit{unit})

	root, ok := g.Nodes["demo.Root"]
	if !ok {
		t.Fatalf("no node for demo.Root; have %d nodes", len(g.Nodes))
	}
	if !root.Annotations[analysis.AnnotationHotPath] {
		t.Errorf("Root missing hotpath annotation: %v", root.Annotations)
	}
	if _, ok := g.Nodes["(*demo.acc).add"]; !ok {
		t.Errorf("method node (*demo.acc).add missing")
	}

	roots := g.Roots(analysis.AnnotationHotPath)
	if len(roots) != 1 || roots[0].ID != "demo.Root" {
		t.Errorf("Roots(hotpath) = %v", roots)
	}
}

func TestColdSpansAndEdges(t *testing.T) {
	fset, unit := load(t)
	g := Build(fset, []*analysis.Unit{unit})
	root := g.Nodes["demo.Root"]

	byCallee := map[string]Call{}
	for _, c := range root.Calls {
		byCallee[c.CalleeID] = c
	}
	// deadEnd and errors.New sit in the block ending `return 0, errors.New(...)`.
	for _, cold := range []string{"demo.deadEnd", "errors.New"} {
		c, ok := byCallee[cold]
		if !ok {
			t.Fatalf("missing call edge to %s (have %v)", cold, root.Calls)
		}
		if !c.Cold {
			t.Errorf("call to %s should be cold", cold)
		}
	}
	// Sum and the closure-folded helper are on the success path.
	for _, hot := range []string{"demo.Sum", "demo.helperFromClosure"} {
		c, ok := byCallee[hot]
		if !ok {
			t.Fatalf("missing call edge to %s (have %v)", hot, root.Calls)
		}
		if c.Cold {
			t.Errorf("call to %s should not be cold", hot)
		}
	}
}

func TestReachabilityAndChain(t *testing.T) {
	fset, unit := load(t)
	g := Build(fset, []*analysis.Unit{unit})
	r := g.Reachable(g.Roots(analysis.AnnotationHotPath))

	for _, want := range []string{"demo.Root", "demo.Sum", "(*demo.acc).add", "demo.helperFromClosure"} {
		if _, ok := r.Nodes[want]; !ok {
			t.Errorf("%s not reached", want)
		}
	}
	for _, notWant := range []string{"demo.deadEnd", "demo.Unreached"} {
		if _, ok := r.Nodes[notWant]; ok {
			t.Errorf("%s reached but should be cold/unreachable", notWant)
		}
	}

	chain := r.Chain("(*demo.acc).add")
	if got := strings.Join(chain, " -> "); got != "demo.Root -> demo.Sum -> demo.acc.add" {
		t.Errorf("chain = %q", got)
	}
}
