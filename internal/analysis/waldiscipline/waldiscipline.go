// Package waldiscipline structurally encodes the PDME's write-ahead
// contract (PR 7): on the accept path, the journal append comes first.
//
// Durability of the fusion state rests on one ordering invariant — an
// accepted envelope is fsynced to the WAL *before* any derived state
// (fusion evidence, OOSM objects, health observations, dedup marks)
// mutates. If a mutation slips ahead of the append, a crash in the gap
// loses the envelope while keeping (part of) its effect, and recovery is no
// longer bit-identical to an undisturbed run — the exact property
// TestCrashChaosKill9Recovery proves. The chaos suite catches a violation
// only when the kill lands in the gap; this analyzer catches it at compile
// time.
//
// The check: in package pdme, any method that calls the receiver's
// appendJournal is an accept-path function. Within it,
//
//   - every state-mutating call rooted at the receiver (apply,
//     model.Create/Set, diag.Fold/AddReport/AddReportFrom, Health().ObserveReport/
//     ObserveHeartbeat, dedup Mark) must appear after the first
//     appendJournal call in source order — the WAL is written first. The
//     call's own arguments count as before it: the callback that encodes a
//     run's records runs ahead of the write, and so does a per-report loop
//     placed above the batch append;
//   - the appendJournal error must be consumed: a bare or `_ =` discarded
//     append turns "journaled before mutation" into "maybe journaled".
//
// Functions that never call appendJournal (replay, restore, fusion
// internals) are out of scope: replay re-applies effects of records already
// in the WAL, and the fusion layer below the PDME has no journal handle.
// Closure bodies count as part of their enclosing function, matching how
// acceptHeartbeat brackets its critical section.
package waldiscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the waldiscipline check.
var Analyzer = &analysis.Analyzer{
	Name: "waldiscipline",
	Doc: "on the pdme accept path, state mutations must follow the " +
		"appendJournal write-ahead, and the append error must be handled",
	Run: run,
}

// journalFunc is the write-ahead entry point the contract is anchored on.
const journalFunc = "appendJournal"

// MutatingCalls names the receiver-rooted method calls that mutate derived
// state a checkpoint snapshots: OOSM posts (Create runs fusion synchronously
// via the event model; Set rewrites a conclusion in place), direct
// fusion folds, health observations, dedup
// marks — and the PDME's own apply, the one body that does all of them for a
// report, so the accept that calls it is still held to the order.
var MutatingCalls = map[string]bool{
	"apply":            true,
	"Create":           true,
	"Set":              true,
	"Fold":             true,
	"AddReport":        true,
	"AddReportFrom":    true,
	"Mark":             true,
	"ObserveReport":    true,
	"ObserveHeartbeat": true,
	"Restore":          true,
	"RestoreState":     true,
}

func run(pass *analysis.Pass) error {
	if analysis.PathSegment(pass.ImportPath) != "pdme" {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if len(fd.Recv.List[0].Names) == 0 {
				continue // anonymous receiver cannot root a call chain
			}
			recv := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
			if recv == nil {
				continue
			}
			checkFunc(pass, fd, recv)
		}
	}
	return nil
}

// checkFunc applies the ordering and error-handling rules to one accept-path
// candidate. Closures inside the body are treated as part of the function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, recv types.Object) {
	// Locate the first appendJournal call; what precedes its closing
	// parenthesis precedes the write.
	var first *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != journalFunc {
			return true
		}
		if !rootedAt(pass, sel.X, recv) {
			return true
		}
		if first == nil || call.Pos() < first.Pos() {
			first = call
		}
		return true
	})
	if first == nil {
		return // not an accept-path function
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			// A bare appendJournal statement discards the append error.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
					sel.Sel.Name == journalFunc && rootedAt(pass, sel.X, recv) {
					pass.Reportf(call.Pos(),
						"appendJournal error discarded on the accept path; a failed append must fail the accept")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != "_" || i >= len(n.Rhs) {
					continue
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
						sel.Sel.Name == journalFunc && rootedAt(pass, sel.X, recv) {
						pass.Reportf(call.Pos(),
							"appendJournal error discarded on the accept path; a failed append must fail the accept")
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !MutatingCalls[sel.Sel.Name] || !rootedAt(pass, sel.X, recv) {
				return true
			}
			if n.Pos() < first.End() {
				pass.Reportf(n.Pos(),
					"%s mutates checkpointed state before the appendJournal write-ahead (journal append at %s); "+
						"a crash in the gap loses the envelope but keeps its effect",
					sel.Sel.Name, pass.Fset.Position(first.Pos()))
			}
		}
		return true
	})
}

// rootedAt reports whether the selector base chain of e bottoms out at the
// receiver object: p.model, p.dedupHandle(), p.Health(), p.diag, ...
func rootedAt(pass *analysis.Pass, e ast.Expr, recv types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x] == recv
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				e = sel.X
				continue
			}
			return false
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
