package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Program is the whole-module call graph shared by every package a Loader
// produces. It exists for the reachability-based analyzers (hotalloc,
// nondeterminism, overflow, sweepsafety): a per-packet budget is a property of everything a hot
// function can reach, not of one function body, so the analysis unit has to
// be the module, even though diagnostics are still reported per package.
//
// Construction and its approximations:
//
//   - Nodes are the functions and methods declared (with bodies) in module
//     packages. Function literals have no node of their own: a closure's
//     calls and allocations are attributed to the declaring function, which
//     is where the budget is owed.
//   - Static calls and concrete method calls resolve exactly, via the
//     type-checker's Uses and Selections maps.
//   - Interface method calls are over-approximated by the declared method:
//     an edge is added to every module method with the same name and an
//     identical signature whose receiver type implements the interface.
//     This is sound for the module (no reachable implementation is missed)
//     and tight in practice, because the simulator's interfaces
//     (CongestionControl, FlowHandler, Node) have few implementations.
//   - Calls through plain function values — scheduler callbacks, OnDrop /
//     OnComplete style hooks — are NOT expanded. This is the documented
//     hole in the approximation: observability hooks are allowed to
//     allocate, and the functions those callbacks invoke are annotated as
//     hot roots themselves (Port.transmitDone, Link.deliver, Sender.onRTO),
//     so the per-packet machinery stays covered.
//
// Hot roots are declared in source with a "//hot:path" line in a function's
// doc comment. Reachability is a breadth-first closure from the roots over
// the edge set above; each reached function remembers every root that
// reaches it (in root declaration order), so diagnostics can say why a
// function is subject to hot-path rules — and a callee shared by two roots
// is reported once, with both roots as witnesses, instead of once per root.
type Program struct {
	modPath string
	pkgs    []*Package
	dirty   bool

	nodes     map[*types.Func]*funcNode
	order     []*funcNode            // nodes in deterministic declaration order
	byName    map[string][]*funcNode // methods indexed by name, for interface expansion
	hotFrom   map[*types.Func][]*types.Func
	sweepFrom map[*types.Func][]*types.Func
	terminals map[*types.Func]bool

	// unitSummaries caches the per-function result units the unitflow
	// dataflow engine lifts through this graph (see dataflow.go). Nil until
	// the first unitflow query; invalidated whenever the graph rebuilds.
	unitSummaries map[*types.Func][]unitClass

	// contractTable caches the parsed //inv: contracts (contracts.go) and
	// intervalSummaries the per-function result intervals the interval
	// engine lifts through this graph (interval.go). intervalResults
	// caches the per-package interpreter run shared by the rangeproof and
	// overflow analyzers. All nil until first query;
	// invalidated whenever the graph rebuilds.
	contractTable     *contractTable
	intervalSummaries map[*types.Func][]ival
	intervalResults   map[*Package]*intervalAnalysis

	// stateTable caches the parsed //state: protocols and function
	// contracts (typestate.go); typestateResults caches the per-package
	// typestate interpreter run shared by the poollife, handlestate and
	// ownxfer analyzers. Same lifecycle as the interval caches above.
	stateTable       *stateTable
	typestateResults map[*Package]*typestateAnalysis
}

// funcNode is one declared function in the call graph.
type funcNode struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	pkg   *Package
	hot   bool // carries the //hot:path annotation
	sweep bool // carries the //sweep:job annotation

	edges []callEdge
}

// callEdge is one resolved call site.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// newProgram creates an empty call graph for the given module.
func newProgram(modPath string) *Program {
	return &Program{modPath: modPath}
}

// add registers a loaded module package. The graph is rebuilt lazily on the
// next query, so load order does not matter.
func (prog *Program) add(p *Package) {
	prog.pkgs = append(prog.pkgs, p)
	prog.dirty = true
}

// hotAnnotated reports whether the declaration's doc comment carries a
// //hot:path line.
func hotAnnotated(decl *ast.FuncDecl) bool {
	return docAnnotated(decl, "//hot:path")
}

// sweepAnnotated reports whether the declaration's doc comment carries a
// //sweep:job line, marking it as a worker-executed sweep job body.
func sweepAnnotated(decl *ast.FuncDecl) bool {
	return docAnnotated(decl, "//sweep:job")
}

func docAnnotated(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// endsInPanic reports whether a statement list unconditionally finishes in
// a panic: its last statement is a panic(...) call. This is the shape of
// the module's terminal helpers (check.Failf), whose whole job is to build
// a rich message and die.
func endsInPanic(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	expr, ok := body.List[len(body.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// build (re)constructs nodes, edges and the hot-reachability closure. It is
// cheap relative to type-checking, so a full rebuild on any package-set
// change keeps the logic simple.
func (prog *Program) build() {
	if !prog.dirty {
		return
	}
	prog.dirty = false
	prog.nodes = make(map[*types.Func]*funcNode)
	prog.order = prog.order[:0]
	prog.byName = make(map[string][]*funcNode)
	prog.hotFrom = make(map[*types.Func][]*types.Func)
	prog.sweepFrom = make(map[*types.Func][]*types.Func)
	prog.terminals = make(map[*types.Func]bool)
	prog.unitSummaries = nil
	prog.contractTable = nil
	prog.intervalSummaries = nil
	prog.intervalResults = nil
	prog.stateTable = nil
	prog.typestateResults = nil

	// Pass 1: one node per declared function with a body.
	for _, p := range prog.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{fn: fn, decl: decl, pkg: p, hot: hotAnnotated(decl), sweep: sweepAnnotated(decl)}
				prog.nodes[fn] = n
				prog.order = append(prog.order, n)
				if decl.Recv != nil {
					prog.byName[fn.Name()] = append(prog.byName[fn.Name()], n)
				}
				if endsInPanic(decl.Body) {
					prog.terminals[fn] = true
				}
			}
		}
	}

	// Pass 2: resolve call sites. Interface calls expand to every module
	// method with the same name, an identical signature, and an
	// implementing receiver. Iteration runs over the ordered node list, not
	// the map, so edge order — and through it the BFS witness roots below —
	// is identical on every run.
	for _, n := range prog.order {
		n.edges = prog.collectEdges(n)
	}

	// Pass 3: breadth-first closures from the annotation roots, remembering
	// every witness root per reached function — one closure per annotation
	// (//hot:path and //sweep:job taints are independent rule sets).
	prog.closure(prog.hotFrom, func(n *funcNode) bool { return n.hot })
	prog.closure(prog.sweepFrom, func(n *funcNode) bool { return n.sweep })
}

// closure runs one breadth-first reachability pass per root (in root
// declaration order), appending that root to the witness list of every
// function it reaches. The per-root pass — rather than a single multi-source
// BFS — is what lets a function shared by two roots list both of them.
func (prog *Program) closure(from map[*types.Func][]*types.Func, isRoot func(*funcNode) bool) {
	for _, r := range prog.order {
		if !isRoot(r) {
			continue
		}
		seen := map[*types.Func]bool{r.fn: true}
		queue := []*types.Func{r.fn}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			from[fn] = append(from[fn], r.fn)
			n := prog.nodes[fn]
			if n == nil {
				continue
			}
			for _, e := range n.edges {
				if !seen[e.callee] {
					seen[e.callee] = true
					queue = append(queue, e.callee)
				}
			}
		}
	}
}

// collectEdges resolves every call expression in n's body (closures
// included — they belong to the declaring function).
func (prog *Program) collectEdges(n *funcNode) []callEdge {
	var edges []callEdge
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, iface := n.pkg.calleeOf(call)
		if callee == nil {
			return true // builtin, conversion, or dynamic function value
		}
		if !iface {
			edges = append(edges, callEdge{callee: callee, pos: call.Pos()})
			return true
		}
		for _, impl := range prog.implementations(callee) {
			edges = append(edges, callEdge{callee: impl.fn, pos: call.Pos()})
		}
		return true
	})
	return edges
}

// calleeOf resolves the called function object of a call expression and
// whether the call dispatches through an interface. A nil result means the
// call is a builtin, a type conversion, or a dynamic call through a plain
// function value (the documented call-graph hole).
func (p *Package) calleeOf(call *ast.CallExpr) (callee *types.Func, iface bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn, false
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false
			}
			_, onIface := sel.Recv().Underlying().(*types.Interface)
			return fn, onIface && sel.Kind() == types.MethodVal
		}
		// Package-qualified call (pkg.Fn) has no Selection entry.
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn, false
	}
	return nil, false
}

// implementations returns the module methods an interface method call can
// dispatch to: same name, identical signature, receiver implements the
// interface.
func (prog *Program) implementations(m *types.Func) []*funcNode {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*funcNode
	for _, cand := range prog.byName[m.Name()] {
		csig, ok := cand.fn.Type().(*types.Signature)
		if !ok || csig.Recv() == nil {
			continue
		}
		if !types.Identical(csig, sig) { // receivers are ignored in signature identity
			continue
		}
		recv := csig.Recv().Type()
		// The pointer method set is a superset of the value method set, so
		// testing *T (or T itself when already a pointer) covers both.
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			recv = types.NewPointer(recv)
		}
		if types.Implements(recv, iface) {
			out = append(out, cand)
		}
	}
	return out
}

// hotReachable reports whether fn is statically reachable from a //hot:path
// root, and if so returns the first such root as the provenance witness.
func (prog *Program) hotReachable(fn *types.Func) (*types.Func, bool) {
	prog.build()
	roots := prog.hotFrom[fn]
	if len(roots) == 0 {
		return nil, false
	}
	return roots[0], true
}

// hotRootsOf returns every //hot:path root reaching fn, in root declaration
// order (empty when fn is not hot-reachable).
func (prog *Program) hotRootsOf(fn *types.Func) []*types.Func {
	prog.build()
	return prog.hotFrom[fn]
}

// sweepRootsOf returns every //sweep:job root reaching fn, in root
// declaration order.
func (prog *Program) sweepRootsOf(fn *types.Func) []*types.Func {
	prog.build()
	return prog.sweepFrom[fn]
}

// isTerminal reports whether fn is a never-returning panic helper. Call
// sites of terminal functions (and the arguments of panic itself) are
// exempt from hot-path allocation rules: the program is already dying, and
// a rich diagnostic there is worth any allocation.
func (prog *Program) isTerminal(fn *types.Func) bool {
	prog.build()
	return prog.terminals[fn]
}

// hotNodesIn returns the current package's hot-reachable function nodes in
// source order, paired with their witness roots.
func (prog *Program) hotNodesIn(p *Package) []*funcNode {
	prog.build()
	return prog.nodesIn(p, prog.hotFrom)
}

// sweepReachable reports whether fn is statically reachable from a
// //sweep:job root, returning the first such root as the provenance witness.
func (prog *Program) sweepReachable(fn *types.Func) (*types.Func, bool) {
	prog.build()
	roots := prog.sweepFrom[fn]
	if len(roots) == 0 {
		return nil, false
	}
	return roots[0], true
}

// sweepNodesIn returns the current package's sweep-reachable function
// nodes in source order.
func (prog *Program) sweepNodesIn(p *Package) []*funcNode {
	prog.build()
	return prog.nodesIn(p, prog.sweepFrom)
}

func (prog *Program) nodesIn(p *Package, from map[*types.Func][]*types.Func) []*funcNode {
	var out []*funcNode
	for _, n := range prog.order {
		if n.pkg != p {
			continue
		}
		if len(from[n.fn]) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// rootLabel renders the provenance suffix for hot-path diagnostics, listing
// every root that reaches fn.
func rootLabel(fn *types.Func, roots []*types.Func) string {
	return provenanceLabel("//hot:path", fn, roots)
}

// sweepRootLabel renders the provenance suffix for sweep-taint diagnostics.
func sweepRootLabel(fn *types.Func, roots []*types.Func) string {
	return provenanceLabel("//sweep:job", fn, roots)
}

// provenanceLabel renders a witness suffix: a root names itself, a function
// reached by one root names it, and a function shared by several roots
// lists all of them so the single deduplicated diagnostic still carries the
// full provenance.
func provenanceLabel(marker string, fn *types.Func, roots []*types.Func) string {
	for _, r := range roots {
		if r == fn {
			return "(a " + marker + " root)"
		}
	}
	switch len(roots) {
	case 0:
		return "(a " + marker + " root)"
	case 1:
		return "(reachable from " + marker + " root " + roots[0].FullName() + ")"
	}
	names := make([]string, len(roots))
	for i, r := range roots {
		names[i] = r.FullName()
	}
	return "(reachable from " + marker + " roots " + strings.Join(names, ", ") + ")"
}
