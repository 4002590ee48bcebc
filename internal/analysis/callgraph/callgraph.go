// Package callgraph builds a module-wide static call graph over the
// type-checked units the driver loads, for the interprocedural analyzers
// (hotalloc, sendblock, goroleak).
//
// Nodes are function declarations with bodies somewhere in the module; edges
// are statically resolvable call sites (direct calls to package functions and
// to methods with concrete receivers). Function literals are folded into
// their enclosing declaration: a call made inside a closure is attributed to
// the function that lexically contains it, which matches how the hot-path
// analyzers reason about the code. Dynamic dispatch (interface method calls,
// calls through function values) is not resolved — the analyzers built on
// this graph flag the allocation/blocking constructs they can see and accept
// that a dynamic call can hide more; the //mpros annotations mark exactly the
// paths where the repo forbids such indirection from mattering.
//
// Cross-unit identity: the same function is a source-checked object in its
// own unit and an export-data object in its importers, so nodes are keyed by
// a stable string ID (types.Func.FullName of the origin), never by object
// identity.
//
// Cold spans: a block that terminates by returning a non-nil error (or by
// panicking) is a failure path, not a hot path. The graph records those spans
// per node, and marks call sites inside them, so reachability and allocation
// checks can exempt error construction — a fmt.Errorf behind `if len(frame)
// == 0` does not regress the steady-state ingest rate.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Graph is the module call graph.
type Graph struct {
	Fset *token.FileSet
	// Nodes maps FuncID to node, for every function declared with a body in
	// the module.
	Nodes map[string]*Node
}

// Node is one declared function or method.
type Node struct {
	// ID is the stable cross-unit identifier (see FuncID).
	ID string
	// Func is the declaring unit's object for the function.
	Func *types.Func
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Unit is the unit the body was type-checked in.
	Unit *analysis.Unit
	// Annotations holds the //mpros: directives from the doc comment.
	Annotations map[string]bool
	// Calls lists the statically resolved call sites in the body (function
	// literals folded in), in source order.
	Calls []Call

	coldSpans []span
}

// Call is one statically resolved call site.
type Call struct {
	// CalleeID is the FuncID of the called function (which may or may not
	// have a Node — stdlib callees do not).
	CalleeID string
	// Pos is the call position.
	Pos token.Pos
	// Cold marks a call inside a cold span (see Node.IsCold).
	Cold bool
}

type span struct{ from, to token.Pos }

// IsCold reports whether pos lies in a failure-path span of the node: a
// block that terminates by returning a non-nil error or by panicking.
func (n *Node) IsCold(pos token.Pos) bool {
	for _, s := range n.coldSpans {
		if s.from <= pos && pos <= s.to {
			return true
		}
	}
	return false
}

// FuncID returns the stable identifier for a function object: the full name
// of its origin (generic instantiations collapse onto their declaration).
// Methods include the receiver type, e.g. "(*repro/internal/dsp.Spectrum).AmpAt".
func FuncID(fn *types.Func) string {
	return fn.Origin().FullName()
}

// Build constructs the call graph over units. All units must share fset.
func Build(fset *token.FileSet, units []*analysis.Unit) *Graph {
	g := &Graph{Fset: fset, Nodes: make(map[string]*Node)}
	for _, u := range units {
		for _, file := range u.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := FuncID(obj)
				if _, dup := g.Nodes[id]; dup {
					// The same file can appear in a plain unit and a
					// test-augmented unit; the driver deduplicates units, so a
					// duplicate here means overlapping loads — keep the first.
					continue
				}
				n := &Node{
					ID:          id,
					Func:        obj,
					Decl:        fd,
					Unit:        u,
					Annotations: analysis.Annotations(fd.Doc),
				}
				n.coldSpans = coldSpans(fd, u.TypesInfo)
				n.Calls = collectCalls(fd, u.TypesInfo, n)
				g.Nodes[id] = n
			}
		}
	}
	return g
}

// Node resolves a function object to its node, or nil when the body is
// outside the module.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[FuncID(fn)]
}

// Roots returns the nodes carrying the given //mpros: annotation, in
// deterministic (position) order.
func (g *Graph) Roots(annotation string) []*Node {
	var out []*Node
	for _, n := range g.Nodes { // order restored by the position sort below
		if n.Annotations[annotation] {
			out = append(out, n)
		}
	}
	sortNodes(g.Fset, out)
	return out
}

func sortNodes(fset *token.FileSet, nodes []*Node) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && lessNode(fset, nodes[j], nodes[j-1]); j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

func lessNode(fset *token.FileSet, a, b *Node) bool {
	pa, pb := fset.Position(a.Decl.Pos()), fset.Position(b.Decl.Pos())
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Line < pb.Line
}

// Reach is the result of a reachability sweep: the reached nodes plus enough
// predecessor bookkeeping to explain *why* each one is reached.
type Reach struct {
	// Nodes maps FuncID to reached node. Roots are included.
	Nodes map[string]*Node

	g    *Graph
	pred map[string]string // reached id -> caller id ("" for roots)
}

// Reachable walks the graph from roots following non-cold call sites and
// returns every function with a body that the hot path can reach. Calls on
// failure paths (cold spans) do not propagate reachability: a helper called
// only to build an error message is not hot.
func (g *Graph) Reachable(roots []*Node) *Reach {
	r := &Reach{Nodes: make(map[string]*Node), g: g, pred: make(map[string]string)}
	var queue []*Node
	for _, n := range roots {
		if _, seen := r.Nodes[n.ID]; seen {
			continue
		}
		r.Nodes[n.ID] = n
		r.pred[n.ID] = ""
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			if c.Cold {
				continue
			}
			callee, ok := g.Nodes[c.CalleeID]
			if !ok {
				continue
			}
			if _, seen := r.Nodes[callee.ID]; seen {
				continue
			}
			r.Nodes[callee.ID] = callee
			r.pred[callee.ID] = n.ID
			queue = append(queue, callee)
		}
	}
	return r
}

// Chain returns the call chain from a root to id as short function names,
// e.g. ["vibration.ExtractInto", "dsp.AnalyzeInto", "dsp.RealFFT"]. Returns
// nil when id was not reached.
func (r *Reach) Chain(id string) []string {
	if _, ok := r.Nodes[id]; !ok {
		return nil
	}
	var rev []string
	for cur := id; cur != ""; {
		rev = append(rev, ShortName(r.Nodes[cur]))
		cur = r.pred[cur]
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}

// ShortName renders a node as pkg.Func or pkg.Type.Method for diagnostics.
func ShortName(n *Node) string {
	fn := n.Func
	pkg := ""
	if fn.Pkg() != nil {
		pkg = analysis.PathSegment(fn.Pkg().Path()) + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// collectCalls walks the body (function literals included) and records every
// statically resolvable call.
func collectCalls(fd *ast.FuncDecl, info *types.Info, n *Node) []Call {
	var calls []Call
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := StaticCallee(info, call)
		if fn == nil {
			return true
		}
		calls = append(calls, Call{
			CalleeID: FuncID(fn),
			Pos:      call.Pos(),
			Cold:     n.IsCold(call.Pos()),
		})
		return true
	})
	return calls
}

// StaticCallee resolves a call expression to the function object it
// statically invokes: a package-level function or a method on a concrete
// receiver. Returns nil for conversions, builtins, calls through function
// values, and interface method calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				return nil // dynamic dispatch
			}
		}
	}
	return fn
}

// coldSpans finds the failure-path regions of a function: every guard block
// (if/else body, case clause — never the outermost function body) whose last
// statement panics or returns a provably non-nil final error: a bare non-nil
// identifier (`return err` after a check), a direct errors.New / fmt.Errorf
// call, or the address of a composite literal (a concrete error value).
// Returning a *computed* result (`return s.fastPath()`) stays hot — the rule
// only exempts code that is certainly on the way out with an error.
func coldSpans(fd *ast.FuncDecl, info *types.Info) []span {
	var spans []span
	mark := func(stmts []ast.Stmt, from, to token.Pos, returnsError bool) {
		if len(stmts) == 0 {
			return
		}
		last := stmts[len(stmts)-1]
		cold := false
		switch s := last.(type) {
		case *ast.ReturnStmt:
			if returnsError && len(s.Results) > 0 {
				cold = isNonNilError(info, s.Results[len(s.Results)-1])
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						cold = true
					}
				}
			}
		}
		if cold {
			spans = append(spans, span{from: from, to: to})
		}
	}

	// walk marks the guard blocks of one function body against that
	// function's own error-result signature; closures recurse with theirs.
	var walk func(body *ast.BlockStmt, returnsError bool)
	walk = func(body *ast.BlockStmt, returnsError bool) {
		// The outermost body is never a guard block, but a trailing
		// `return ..., fmt.Errorf(...)` (the ran-off-the-end failure return
		// after a loop) is still certainly an exit-with-error: cold for
		// exactly the span of that return statement. Bare `return err` stays
		// hot here — at the end of a function the error is usually nil on
		// the happy path.
		if returnsError && len(body.List) > 0 {
			if ret, ok := body.List[len(body.List)-1].(*ast.ReturnStmt); ok && len(ret.Results) > 0 {
				last := ast.Unparen(ret.Results[len(ret.Results)-1])
				if _, bare := last.(*ast.Ident); !bare && isNonNilError(info, ret.Results[len(ret.Results)-1]) {
					spans = append(spans, span{from: ret.Pos(), to: ret.End()})
				}
			}
		}
		ast.Inspect(body, func(node ast.Node) bool {
			switch b := node.(type) {
			case *ast.FuncLit:
				if sig, ok := info.TypeOf(b).(*types.Signature); ok {
					walk(b.Body, sigReturnsError(sig))
				}
				return false
			case *ast.BlockStmt:
				if b != body { // the outermost body is never a guard block
					mark(b.List, b.Lbrace, b.Rbrace, returnsError)
				}
			case *ast.CaseClause:
				mark(b.Body, b.Colon, b.End(), returnsError)
			case *ast.CommClause:
				mark(b.Body, b.Colon, b.End(), returnsError)
			}
			return true
		})
	}

	returnsError := false
	if res := fd.Type.Results; res != nil && len(res.List) > 0 {
		last := res.List[len(res.List)-1]
		if t := info.TypeOf(last.Type); t != nil {
			errType := types.Universe.Lookup("error").Type()
			returnsError = types.Identical(t, errType)
		}
	}
	walk(fd.Body, returnsError)
	return spans
}

// sigReturnsError reports whether a signature's final result is exactly the
// error type.
func sigReturnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	return types.Identical(res.At(res.Len()-1).Type(), errType)
}

// isNonNilError reports whether the returned final-result expression is
// certainly a non-nil error value.
func isNonNilError(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name != "nil" // a bare `return err` after a nil check
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
			return isLit // &ParseError{...}
		}
	case *ast.CallExpr:
		if fn := StaticCallee(info, e); fn != nil && fn.Pkg() != nil {
			full := fn.Pkg().Path() + "." + fn.Name()
			return full == "errors.New" || full == "fmt.Errorf"
		}
	}
	return false
}
