// Package errwrap enforces error-chain discipline.
//
// Two checks:
//
//  1. Everywhere: a fmt.Errorf whose arguments include an error but whose
//     format string has no %w severs the chain — errors.Is/As downstream
//     (e.g. the uplink's ErrRejected routing, which decides redial-vs-retry)
//     silently stop matching. Wrap with %w.
//
//  2. In the durability/recovery packages (internal/uplink,
//     internal/relstore, internal/historian, internal/proto,
//     internal/journal, internal/seglog, internal/serving, internal/dc): a
//     call whose result list includes an error, used as a bare statement,
//     drops that error invisibly — a failed sync or truncate in a recovery
//     path then "succeeds". This includes a bare errors.Join, which
//     swallows every joined failure at once. Handle the error, or discard
//     it explicitly with `_ =` (the visible idiom for best-effort cleanup).
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errwrap check.
var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Doc: "forbid fmt.Errorf that swallows an error without %w, and silently " +
		"discarded error returns in recovery packages",
	Run: run,
}

// RecoveryPkgs names the packages (by final import-path segment) whose
// persistence/recovery paths must not drop errors on the floor.
var RecoveryPkgs = map[string]bool{
	"uplink":    true,
	"relstore":  true,
	"historian": true,
	"proto":     true,
	// journal is the PDME's write-ahead log: a dropped error between append
	// and ack breaks the durability guarantee outright.
	"journal": true,
	// seglog is the file layer under all four stores above: every fsync,
	// truncate and rename they rely on happens here.
	"seglog": true,
	// serving reads the historian on the trend path and hands errors to HTTP
	// clients; a discarded error there silently serves an empty trend.
	"serving": true,
	// dc replays and compacts its report log, the ship-side audit trail.
	"dc": true,
}

// ScopePrefixes extends the recovery discipline to whole subtrees by import
// path: the linter holds itself and the command mains to the rules it
// enforces on the rest of the repo.
var ScopePrefixes = []string{
	"repro/internal/analysis",
	"repro/cmd",
}

func inScope(importPath string) bool {
	if RecoveryPkgs[analysis.PathSegment(importPath)] {
		return true
	}
	for _, p := range ScopePrefixes {
		if analysis.UnderPath(importPath, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	recovery := inScope(pass.ImportPath)

	for _, file := range pass.Files {
		inTest := analysis.IsTestFile(pass.Fset, file.Pos())
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorf(pass, errType, n)
			case *ast.ExprStmt:
				if recovery && !inTest {
					checkDiscard(pass, errType, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkErrorf flags fmt.Errorf calls that receive an error operand but whose
// (constant) format string never wraps with %w.
func checkErrorf(pass *analysis.Pass, errType *types.Interface, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // non-constant format: cannot reason about verbs
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := pass.TypesInfo.TypeOf(arg)
		if t != nil && types.Implements(t, errType) {
			pass.Reportf(arg.Pos(),
				"fmt.Errorf swallows an error operand without %%w; the chain breaks for errors.Is/As")
			return
		}
	}
}

// checkDiscard flags a bare-statement call whose results include an error.
// defer and go statements and explicit `_ =` discards are left alone, as are
// writes that cannot fail (methods on strings.Builder/bytes.Buffer, and
// fmt.Fprint* into one of those) and console prints (fmt.Print* and
// fmt.Fprint* into os.Stdout/os.Stderr), whose write error has nowhere
// better to go than the stream that just failed.
func checkDiscard(pass *analysis.Pass, errType *types.Interface, stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	if infallibleWrite(pass, call) || consoleWrite(pass, call) {
		return
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Implements(res.At(i).Type(), errType) {
			pass.Reportf(call.Pos(),
				"call discards its error result in a recovery package; handle it or discard explicitly with _ =")
			return
		}
	}
}

// infallibleWrite reports whether call is a write into an in-memory buffer,
// whose error results are documented to always be nil.
func infallibleWrite(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if selection, ok := pass.TypesInfo.Selections[sel]; ok {
		return isMemBuffer(selection.Recv())
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
		fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
		return isMemBuffer(pass.TypesInfo.TypeOf(call.Args[0]))
	}
	return false
}

// consoleWrite reports whether call is a package-level fmt print to the
// process's own stdout or stderr.
func consoleWrite(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		dst, ok := call.Args[0].(*ast.SelectorExpr)
		if !ok {
			return false
		}
		v, ok := pass.TypesInfo.Uses[dst.Sel].(*types.Var)
		return ok && v.Pkg() != nil && v.Pkg().Path() == "os" &&
			(v.Name() == "Stdout" || v.Name() == "Stderr")
	}
	return false
}

func isMemBuffer(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	path, name := n.Obj().Pkg().Path(), n.Obj().Name()
	return (path == "strings" && name == "Builder") || (path == "bytes" && name == "Buffer")
}
