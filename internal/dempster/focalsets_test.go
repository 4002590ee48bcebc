package dempster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestFocalSetsIsOnlyMapIteration pins the package's determinism contract at
// the source level: the raw `range m.m` over the mass map exists exactly once,
// inside FocalSets (which sorts before returning), and the calculus entry
// points Combine and Belief iterate only via FocalSets() or the
// frame's ordered name slice. The maporder analyzer enforces the same rule
// module-wide; this test keeps the contract honest even when the linter's
// scope map is edited.
func TestFocalSetsIsOnlyMapIteration(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dempster.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	rangesByFunc := map[string][]ast.Expr{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok {
				rangesByFunc[fd.Name.Name] = append(rangesByFunc[fd.Name.Name], rng.X)
			}
			return true
		})
	}

	// Rule 1: `range <recv>.m` appears only inside FocalSets itself.
	for fn, exprs := range rangesByFunc {
		for _, x := range exprs {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "m" {
				continue
			}
			if fn != "FocalSets" {
				t.Errorf("%s: function %s ranges the raw mass map; iterate FocalSets() instead",
					fset.Position(x.Pos()), fn)
			}
		}
	}
	if len(rangesByFunc["FocalSets"]) != 1 {
		t.Errorf("FocalSets: want exactly one range (the sorted-key collection), got %d",
			len(rangesByFunc["FocalSets"]))
	}

	// Rule 2: the calculus entry points iterate only ordered sources —
	// FocalSets() calls or the frame's registration-ordered names slice.
	for _, fn := range []string{"Combine", "Belief"} {
		exprs, ok := rangesByFunc[fn]
		if !ok {
			t.Errorf("function %s not found or has no loops; the contract test needs updating", fn)
			continue
		}
		for _, x := range exprs {
			switch x := x.(type) {
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "FocalSets" {
					continue
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "names" {
					continue
				}
			}
			t.Errorf("%s: %s ranges a non-ordered source; only FocalSets() and frame.names are deterministic",
				fset.Position(x.Pos()), fn)
		}
	}
}
