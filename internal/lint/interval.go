package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements the interval abstract interpreter behind the
// rangeproof and overflow analyzers: a numeric interval
// lattice with widening, a statement-structured interpreter with
// comparison-guided narrowing on branch edges, and per-function result
// summaries lifted over the Program call graph the way the unit lattice
// is (dataflow.go).
//
// Proof semantics and soundness caveats, in one place:
//
//   - Contracts hold at function exit: a field may transiently leave its
//     declared range between statements of one writer, but every path out
//     of the function must restore it (or carry an internal/check
//     assertion — see rangeproof.go).
//   - Reads assume: reading an annotated field or parameter yields its
//     declared interval ("assume on read"). Write obligations apply only
//     in the declaring package; cross-package writes are exempt and are
//     expected to be guarded by constructor validation (Config.validate).
//   - Instances are conflated: p1.qBytes and p2.qBytes share one abstract
//     cell. Sound for proving (joins only), imprecise never unsound.
//   - Arithmetic is mathematical: transfer functions ignore wraparound
//     (the overflow analyzer owns width; rangeproof assumes ideal ints).
//     Conversions use wrap semantics: an argument that provably fits the
//     target type keeps its interval, anything else becomes the target's
//     full range. Float→int conversions assume saturating truncation.
//   - Intervals do not model NaN: a NaN input slips through any interval
//     proof, which is one reason runtime check.* assertions remain the
//     other half of the contract.
//   - Comparison facts learned on branch edges are invalidated by writes
//     to any mentioned variable but NOT by function calls; the module's
//     guard-then-update shapes have no interfering calls in between.
//   - Loops run a bounded descending iteration with widening; deferred
//     and go'd function literals are interpreted inline at their site.
//     goto conservatively kills the current path.
//
// These caveats are deliberate: the interpreter is a prover for the
// module's own guard-and-clamp idioms, not a general verifier.

// ---- the interval lattice ----

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// ival is a closed numeric interval [lo, hi] over the extended reals.
// lo > hi encodes the empty interval (an unreachable value).
type ival struct{ lo, hi float64 }

func topIval() ival        { return ival{negInf, posInf} }
func (v ival) empty() bool { return v.lo > v.hi }

func (v ival) join(o ival) ival {
	if v.empty() {
		return o
	}
	if o.empty() {
		return v
	}
	return ival{math.Min(v.lo, o.lo), math.Max(v.hi, o.hi)}
}

func (v ival) meet(o ival) ival {
	return ival{math.Max(v.lo, o.lo), math.Min(v.hi, o.hi)}
}

// widen keeps the bounds of v that the new value o respects and drops the
// ones it crossed to infinity, guaranteeing loop termination.
func (v ival) widen(o ival) ival {
	if v.empty() {
		return o
	}
	if o.empty() {
		return v
	}
	w := v
	if o.lo < v.lo {
		w.lo = negInf
	}
	if o.hi > v.hi {
		w.hi = posInf
	}
	return w
}

func (v ival) String() string {
	if v.empty() {
		return "(unreachable)"
	}
	lo, hi := "-inf", "+inf"
	if !math.IsInf(v.lo, -1) {
		lo = strconv.FormatFloat(v.lo, 'g', -1, 64)
	}
	if !math.IsInf(v.hi, 1) {
		hi = strconv.FormatFloat(v.hi, 'g', -1, 64)
	}
	return "[" + lo + ", " + hi + "]"
}

// ---- interval arithmetic ----

func (v ival) neg() ival {
	if v.empty() {
		return v
	}
	return ival{-v.hi, -v.lo}
}

func (v ival) add(o ival) ival {
	if v.empty() || o.empty() {
		return ival{1, 0}
	}
	return ival{v.lo + o.lo, v.hi + o.hi}
}

func (v ival) sub(o ival) ival { return v.add(o.neg()) }

// mulEnd multiplies endpoints with the interval convention 0·∞ = 0.
func mulEnd(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a * b
}

func (v ival) mul(o ival) ival {
	if v.empty() || o.empty() {
		return ival{1, 0}
	}
	c := [4]float64{mulEnd(v.lo, o.lo), mulEnd(v.lo, o.hi), mulEnd(v.hi, o.lo), mulEnd(v.hi, o.hi)}
	lo, hi := c[0], c[0]
	for _, x := range c[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return ival{lo, hi}
}

// div over-approximates x/y; a divisor interval touching zero yields top
// (for integers that path panics at runtime anyway).
func (v ival) div(o ival) ival {
	if v.empty() || o.empty() {
		return ival{1, 0}
	}
	if o.lo <= 0 && o.hi >= 0 {
		return topIval()
	}
	inv := ival{1 / o.hi, 1 / o.lo}
	return v.mul(inv)
}

// rem over-approximates x % y (truncated remainder: sign follows x,
// magnitude below max|y|).
func (v ival) rem(o ival) ival {
	if v.empty() || o.empty() {
		return ival{1, 0}
	}
	m := math.Max(math.Abs(o.lo), math.Abs(o.hi))
	if !math.IsInf(m, 1) && m > 0 {
		m--
	}
	switch {
	case v.lo >= 0:
		return ival{0, math.Min(v.hi, m)}
	case v.hi <= 0:
		return ival{math.Max(v.lo, -m), 0}
	default:
		return ival{-m, m}
	}
}

// ---- static type ranges ----

var (
	maxI64f = math.Ldexp(1, 63) // outward-rounded MaxInt64
	maxU64f = math.Ldexp(1, 64)
)

// typeRange is the value range the static type admits; top for floats and
// anything non-basic.
func typeRange(t types.Type) ival {
	if t == nil {
		return topIval()
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return topIval()
	}
	switch b.Kind() {
	case types.Int, types.Int64, types.UntypedInt:
		return ival{-maxI64f, maxI64f}
	case types.Int32, types.UntypedRune:
		return ival{math.MinInt32, math.MaxInt32}
	case types.Int16:
		return ival{math.MinInt16, math.MaxInt16}
	case types.Int8:
		return ival{math.MinInt8, math.MaxInt8}
	case types.Uint, types.Uint64, types.Uintptr:
		return ival{0, maxU64f}
	case types.Uint32:
		return ival{0, math.MaxUint32}
	case types.Uint16:
		return ival{0, math.MaxUint16}
	case types.Uint8:
		return ival{0, math.MaxUint8}
	default:
		return topIval()
	}
}

// ---- abstract state ----

// symKey identifies one symbolic atom of one annotated field.
type symKey struct {
	field *types.Var
	idx   int
}

// fact is a comparison learned on a branch edge, canonicalized as
// left <= right (strict: left < right). Facts die when any mentioned
// object is written.
type fact struct {
	left, right string
	strict      bool
	objs        map[types.Object]bool
}

// absState is the abstract store at one program point.
type absState struct {
	vals map[types.Object]ival
	// sym tracks whether each symbolic contract atom of a written field
	// currently holds; a missing key means the field is untouched and the
	// contract is still assumed.
	sym         map[symKey]bool
	facts       []fact
	unreachable bool
}

func newAbsState() *absState {
	return &absState{vals: map[types.Object]ival{}, sym: map[symKey]bool{}}
}

func (st *absState) clone() *absState {
	c := &absState{
		vals:        make(map[types.Object]ival, len(st.vals)),
		sym:         make(map[symKey]bool, len(st.sym)),
		facts:       append([]fact(nil), st.facts...),
		unreachable: st.unreachable,
	}
	for k, v := range st.vals {
		c.vals[k] = v
	}
	for k, v := range st.sym {
		c.sym[k] = v
	}
	return c
}

// invalidate drops facts mentioning obj.
func (st *absState) invalidate(obj types.Object) {
	kept := st.facts[:0]
	for _, f := range st.facts {
		if !f.objs[obj] {
			kept = append(kept, f)
		}
	}
	st.facts = kept
}

// factHolds reports whether left <= right is known, and whether strictly.
func (st *absState) factHolds(left, right string) (strict, ok bool) {
	for _, f := range st.facts {
		if f.left == left && f.right == right {
			ok = true
			strict = strict || f.strict
		}
	}
	return strict, ok
}

// ---- canonical expression rendering for facts and symbolic bounds ----

// objKey renders a types.Object as a stable, collision-free token.
func objKey(o types.Object) string {
	return o.Name() + "@" + strconv.Itoa(int(o.Pos()))
}

// canonExpr renders e as a canonical string keyed on resolved objects, so
// the same value written two ways (with or without a conversion, say)
// compares equal. Returns ok=false for expressions with no stable
// canonical form (calls, indexing, ...).
func canonExpr(p *Package, e ast.Expr, objs map[types.Object]bool) (string, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return canonExpr(p, e.X, objs)
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if obj == nil {
			obj = p.Info.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		if c := p.Info.Types[e]; c.Value != nil {
			return "#" + c.Value.String(), true
		}
		objs[obj] = true
		return objKey(obj), true
	case *ast.SelectorExpr:
		if c := p.Info.Types[e]; c.Value != nil {
			return "#" + c.Value.String(), true
		}
		if sel, ok := p.Info.Selections[e]; ok {
			base, ok := canonExpr(p, e.X, objs)
			if !ok {
				return "", false
			}
			objs[sel.Obj()] = true
			return base + "." + objKey(sel.Obj()), true
		}
		if obj := p.Info.Uses[e.Sel]; obj != nil { // package-qualified
			objs[obj] = true
			return objKey(obj), true
		}
		return "", false
	case *ast.CallExpr:
		// Conversions are transparent: int64(x) canonicalizes as x.
		if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return canonExpr(p, e.Args[0], objs)
		}
		return "", false
	case *ast.UnaryExpr:
		if e.Op == token.ADD {
			return canonExpr(p, e.X, objs)
		}
		return "", false
	case *ast.BasicLit:
		if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
			return "#" + tv.Value.String(), true
		}
		return "", false
	case *ast.BinaryExpr:
		if e.Op != token.ADD && e.Op != token.SUB {
			return "", false
		}
		l, ok := canonExpr(p, e.X, objs)
		if !ok {
			return "", false
		}
		r, ok := canonExpr(p, e.Y, objs)
		if !ok {
			return "", false
		}
		return "(" + l + e.Op.String() + r + ")", true
	default:
		return "", false
	}
}

// atomBoundCanon renders the symbolic bound of a field-contract atom
// relative to baseCanon, the canonical form of the instance expression
// (the p of p.qBytes): base.cfg.BufferBytes and every spelling that
// canonicalizes the same way compare equal.
func atomBoundCanon(baseCanon string, a atom) (string, bool) {
	if a.path == nil || baseCanon == "" {
		return "", false
	}
	s := baseCanon
	for _, o := range a.path {
		s += "." + objKey(o)
	}
	return s, true
}

// ---- the interpreter ----

// checkAssert is one recognized internal/check call site, the runtime half
// of a contract.
type checkAssert struct {
	fnName     string     // "Unit", "NonNegative", "AtMost", ...
	target     *types.Var // the asserted field, when the value resolves to one
	boundV     ival       // evaluated bound argument (AtLeast/AtMost)
	boundCanon string     // canonical bound expression, "" if none
	baseCanon  string     // canonical instance expression of the value arg
	pos        token.Pos
}

// accumSite is one narrow-typed accumulation candidate for the overflow
// analyzer.
type accumSite struct {
	pos  token.Pos
	expr string // rendered target, e.g. "p.hops"
	typ  *types.Basic
	up   bool // grows upward (+=, ++) vs downward (-=, --)
}

// obligation is a positioned proof failure (call argument, return value or
// composite literal against a contract).
type obligation struct {
	pos token.Pos
	msg string
}

// intervalFlow interprets one declared function (plus its inline function
// literals). With sink=false it only computes the result summary; with
// sink=true it additionally records write sites, proof obligations,
// check.* assertions and narrow accumulations.
type intervalFlow struct {
	p    *Package
	prog *Program
	ct   *contractTable
	decl *ast.FuncDecl
	fn   *types.Func
	sink bool

	rets      []ival // joined result intervals, per index
	retsValid bool
	exit      *absState // join of the state at every exit point
	hasExit   bool

	writes    map[*types.Var]token.Pos // last write site per annotated field
	baseOf    map[*types.Var]string    // instance canon at that write
	checks    []checkAssert
	accums    []accumSite
	obls      []obligation
	seenObl   map[token.Pos]bool
	seenAccum map[token.Pos]bool
	seenCheck map[token.Pos]bool

	breakStack [][]*absState
	contStack  [][]*absState
}

func newIntervalFlow(p *Package, prog *Program, ct *contractTable, decl *ast.FuncDecl, fn *types.Func, sink bool) *intervalFlow {
	nres := 0
	if sig, ok := fn.Type().(*types.Signature); ok {
		nres = sig.Results().Len()
	}
	return &intervalFlow{
		p: p, prog: prog, ct: ct, decl: decl, fn: fn, sink: sink,
		rets:      make([]ival, nres),
		writes:    map[*types.Var]token.Pos{},
		baseOf:    map[*types.Var]string{},
		seenObl:   map[token.Pos]bool{},
		seenAccum: map[token.Pos]bool{},
		seenCheck: map[token.Pos]bool{},
	}
}

// run interprets the function body from a fresh entry state.
func (f *intervalFlow) run() {
	st := newAbsState()
	// Seed contract-carrying parameters and zero-valued named results.
	if fc, ok := f.ct.funcs[f.fn]; ok {
		//lint:allow nondeterminism keyed write, value depends only on the key: order-insensitive
		for pv, atoms := range fc.params {
			st.vals[pv] = f.ct.declaredIval(atoms).meet(typeRange(pv.Type()))
		}
	}
	if f.decl.Type.Results != nil {
		for _, fl := range f.decl.Type.Results.List {
			for _, n := range fl.Names {
				if v, ok := f.p.Info.Defs[n].(*types.Var); ok && isNumericType(v.Type()) {
					st.vals[v] = ival{0, 0}.meet(typeRange(v.Type()))
				}
			}
		}
	}
	f.stmt(f.decl.Body, st)
	if !st.unreachable {
		f.recordExit(st)
	}
}

func (f *intervalFlow) recordExit(st *absState) {
	if !f.hasExit {
		f.exit = st.clone()
		f.hasExit = true
		return
	}
	f.exit = f.joinState(f.exit, st)
}

// ---- state join / widen / compare ----

// stateIval is the interval of obj in st: its tracked value, else its
// declared contract for annotated fields, else the static type range.
func (f *intervalFlow) stateIval(st *absState, obj types.Object) ival {
	if v, ok := st.vals[obj]; ok {
		return v
	}
	if fv, ok := obj.(*types.Var); ok {
		if fc, ok := f.ct.fields[fv]; ok {
			return f.ct.declaredIval(fc.atoms).meet(typeRange(fv.Type()))
		}
	}
	return typeRange(obj.Type())
}

func (f *intervalFlow) joinState(a, b *absState) *absState {
	if a.unreachable {
		return b.clone()
	}
	if b.unreachable {
		return a.clone()
	}
	out := newAbsState()
	//lint:allow nondeterminism keyed write, join is commutative and the value depends only on the key
	for k := range a.vals {
		out.vals[k] = f.stateIval(a, k).join(f.stateIval(b, k))
	}
	//lint:allow nondeterminism keyed write, join is commutative and the value depends only on the key
	for k := range b.vals {
		if _, done := out.vals[k]; !done {
			out.vals[k] = f.stateIval(a, k).join(f.stateIval(b, k))
		}
	}
	symAt := func(st *absState, k symKey) bool {
		v, ok := st.sym[k]
		return !ok || v // missing = untouched = contract assumed
	}
	//lint:allow nondeterminism keyed write, value depends only on the key: order-insensitive
	for k := range a.sym {
		out.sym[k] = symAt(a, k) && symAt(b, k)
	}
	//lint:allow nondeterminism keyed write, value depends only on the key: order-insensitive
	for k := range b.sym {
		if _, done := out.sym[k]; !done {
			out.sym[k] = symAt(a, k) && symAt(b, k)
		}
	}
	for _, fa := range a.facts {
		if s, ok := b.factHolds(fa.left, fa.right); ok {
			g := fa
			g.strict = fa.strict && s
			out.facts = append(out.facts, g)
		}
	}
	return out
}

// widenState widens old toward new per tracked value.
func (f *intervalFlow) widenState(old, new_ *absState) *absState {
	if old.unreachable || new_.unreachable {
		return f.joinState(old, new_)
	}
	out := new_.clone()
	//lint:allow nondeterminism keyed write, value depends only on the key: order-insensitive
	for k, nv := range out.vals {
		out.vals[k] = f.stateIval(old, k).widen(nv)
	}
	return out
}

func eqState(a, b *absState) bool {
	if a.unreachable != b.unreachable || len(a.vals) != len(b.vals) || len(a.sym) != len(b.sym) {
		return false
	}
	//lint:allow nondeterminism pure membership test: the boolean result is order-independent
	for k, v := range a.vals {
		if w, ok := b.vals[k]; !ok || w != v {
			return false
		}
	}
	//lint:allow nondeterminism pure membership test: the boolean result is order-independent
	for k, v := range a.sym {
		if w, ok := b.sym[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// ---- statement interpretation ----

func (f *intervalFlow) stmt(s ast.Stmt, st *absState) {
	if s == nil || st.unreachable {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			if st.unreachable {
				return
			}
			f.stmt(sub, st)
		}
	case *ast.IfStmt:
		f.stmt(s.Init, st)
		f.evalForEffects(s.Cond, st)
		then := st.clone()
		f.assume(s.Cond, then, true)
		f.stmt(s.Body, then)
		els := st.clone()
		f.assume(s.Cond, els, false)
		if s.Else != nil {
			f.stmt(s.Else, els)
		}
		*st = *f.joinState(then, els)
	case *ast.AssignStmt:
		f.assign(s, st)
	case *ast.IncDecStmt:
		one := ival{1, 1}
		old := f.lhsIval(s.X, st)
		var nv ival
		up := s.Tok == token.INC
		if up {
			nv = old.add(one)
		} else {
			nv = old.sub(one)
		}
		f.noteAccum(s.X, up, s.TokPos, st)
		f.writeTo(s.X, nv, nil, token.ILLEGAL, st)
	case *ast.ReturnStmt:
		f.returnStmt(s, st)
	case *ast.ExprStmt:
		f.evalForEffects(s.X, st)
		if call, ok := unparen(s.X).(*ast.CallExpr); ok && f.isTerminalCall(call) {
			st.unreachable = true
		}
	case *ast.DeclStmt:
		f.declStmt(s, st)
	case *ast.ForStmt:
		f.stmt(s.Init, st)
		f.loop(s.Cond, s.Body, s.Post, st)
	case *ast.RangeStmt:
		f.rangeStmt(s, st)
	case *ast.SwitchStmt:
		f.stmt(s.Init, st)
		f.evalForEffects(s.Tag, st)
		f.switchBodies(s.Body, st, nil)
	case *ast.TypeSwitchStmt:
		f.stmt(s.Init, st)
		f.stmt(s.Assign, st)
		f.switchBodies(s.Body, st, nil)
	case *ast.SelectStmt:
		f.switchBodies(s.Body, st, nil)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if n := len(f.breakStack); n > 0 {
				f.breakStack[n-1] = append(f.breakStack[n-1], st.clone())
			}
			st.unreachable = true
		case token.CONTINUE:
			if n := len(f.contStack); n > 0 {
				f.contStack[n-1] = append(f.contStack[n-1], st.clone())
			}
			st.unreachable = true
		case token.GOTO:
			st.unreachable = true // conservative: path not tracked further
		}
	case *ast.LabeledStmt:
		f.stmt(s.Stmt, st)
	case *ast.DeferStmt, *ast.GoStmt:
		// Interpret inline at the site: an approximation (defers run at
		// exit), adequate for the module's observability-hook literals.
		var call *ast.CallExpr
		if d, ok := s.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = s.(*ast.GoStmt).Call
		}
		f.evalForEffects(call, st)
	case *ast.SendStmt:
		f.evalForEffects(s.Chan, st)
		f.evalForEffects(s.Value, st)
	case *ast.EmptyStmt:
	}
}

// switchBodies joins the entry state with every clause body, carrying
// fallthrough states forward. A missing default keeps the entry state as
// the no-match path; select statements pass the same way (sound, since the
// join includes entry).
func (f *intervalFlow) switchBodies(body *ast.BlockStmt, st *absState, _ []*absState) {
	f.breakStack = append(f.breakStack, nil)
	entry := st.clone()
	out := entry.clone() // the no-match / not-taken path
	var fallthru *absState
	for _, cl := range body.List {
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				f.evalForEffects(e, entry)
			}
			list = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				f.stmt(cl.Comm, entry)
			}
			list = cl.Body
		default:
			continue
		}
		cs := entry.clone()
		if fallthru != nil {
			cs = f.joinState(cs, fallthru)
			fallthru = nil
		}
		fellThrough := false
		for _, sub := range list {
			if br, ok := sub.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fellThrough = true
				break
			}
			f.stmt(sub, cs)
		}
		if fellThrough {
			fallthru = cs
		} else {
			out = f.joinState(out, cs)
		}
	}
	breaks := f.breakStack[len(f.breakStack)-1]
	f.breakStack = f.breakStack[:len(f.breakStack)-1]
	for _, b := range breaks {
		out = f.joinState(out, b)
	}
	*st = *out
}

// loopPassCap bounds the per-loop descending iteration; widening from the
// second pass guarantees it converges well before the cap.
const loopPassCap = 3

func (f *intervalFlow) loop(cond ast.Expr, body *ast.BlockStmt, post ast.Stmt, st *absState) {
	cur := st.clone()
	cur.facts = nil
	var breaks []*absState
	for pass := 0; pass < loopPassCap; pass++ {
		it := cur.clone()
		if cond != nil {
			f.evalForEffects(cond, it)
			f.assume(cond, it, true)
		}
		f.breakStack = append(f.breakStack, nil)
		f.contStack = append(f.contStack, nil)
		f.stmt(body, it)
		conts := f.contStack[len(f.contStack)-1]
		f.contStack = f.contStack[:len(f.contStack)-1]
		for _, c := range conts {
			it = f.joinState(it, c)
		}
		if post != nil && !it.unreachable {
			f.stmt(post, it)
		}
		passBreaks := f.breakStack[len(f.breakStack)-1]
		f.breakStack = f.breakStack[:len(f.breakStack)-1]
		breaks = append(breaks, passBreaks...)
		next := f.joinState(cur, it)
		if pass >= 1 {
			next = f.widenState(cur, next)
		}
		next.facts = nil
		if eqState(cur, next) {
			cur = next
			break
		}
		cur = next
	}
	var out *absState
	if cond != nil {
		out = cur.clone()
		f.assume(cond, out, false)
	} else {
		out = newAbsState()
		out.unreachable = true // for{} exits only via break
	}
	for _, b := range breaks {
		out = f.joinState(out, b)
	}
	out.facts = nil
	*st = *out
}

func (f *intervalFlow) rangeStmt(s *ast.RangeStmt, st *absState) {
	f.evalForEffects(s.X, st)
	cur := st.clone()
	cur.facts = nil
	assignVar := func(e ast.Expr, v ival, target *absState) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			obj := f.p.Info.Defs[id]
			if obj == nil {
				obj = f.p.Info.Uses[id]
			}
			if obj != nil && isNumericType(obj.Type()) {
				target.vals[obj] = v.meet(typeRange(obj.Type()))
				target.invalidate(obj)
			}
		}
	}
	var breaks []*absState
	for pass := 0; pass < loopPassCap; pass++ {
		it := cur.clone()
		if s.Key != nil {
			assignVar(s.Key, ival{0, maxI64f}, it)
		}
		if s.Value != nil {
			assignVar(s.Value, typeRange(f.p.Info.TypeOf(s.Value)), it)
		}
		f.breakStack = append(f.breakStack, nil)
		f.contStack = append(f.contStack, nil)
		f.stmt(s.Body, it)
		conts := f.contStack[len(f.contStack)-1]
		f.contStack = f.contStack[:len(f.contStack)-1]
		for _, c := range conts {
			it = f.joinState(it, c)
		}
		passBreaks := f.breakStack[len(f.breakStack)-1]
		f.breakStack = f.breakStack[:len(f.breakStack)-1]
		breaks = append(breaks, passBreaks...)
		next := f.joinState(cur, it)
		if pass >= 1 {
			next = f.widenState(cur, next)
		}
		next.facts = nil
		if eqState(cur, next) {
			cur = next
			break
		}
		cur = next
	}
	out := cur
	for _, b := range breaks {
		out = f.joinState(out, b)
	}
	out.facts = nil
	*st = *out
}

func (f *intervalFlow) declStmt(s *ast.DeclStmt, st *absState) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			obj := f.p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if i < len(vs.Values) {
				v := f.eval(vs.Values[i], st)
				if isNumericType(obj.Type()) {
					st.vals[obj] = v.meet(typeRange(obj.Type()))
				}
			} else if isNumericType(obj.Type()) {
				st.vals[obj] = ival{0, 0}.meet(typeRange(obj.Type()))
			} else {
				// Zero value of a struct with annotated fields must
				// satisfy its contracts.
				f.checkZeroStruct(obj.Type(), name.Pos(), st)
			}
		}
	}
}

func (f *intervalFlow) returnStmt(s *ast.ReturnStmt, st *absState) {
	results := s.Results
	if len(results) == 0 && f.decl.Type.Results != nil {
		// Bare return with named results: read them from the state.
		var vals []ival
		for _, fl := range f.decl.Type.Results.List {
			for _, n := range fl.Names {
				obj := f.p.Info.Defs[n]
				if obj != nil {
					vals = append(vals, f.stateIval(st, obj))
				} else {
					vals = append(vals, topIval())
				}
			}
		}
		f.noteReturn(vals, nil, s.Pos(), st)
	} else {
		vals := make([]ival, len(results))
		for i, r := range results {
			vals[i] = f.eval(r, st)
		}
		f.noteReturn(vals, results, s.Pos(), st)
	}
	f.recordExit(st)
	st.unreachable = true
}

// noteReturn joins the returned intervals into the summary and, in sink
// mode, checks them against the function's result contract.
func (f *intervalFlow) noteReturn(vals []ival, exprs []ast.Expr, pos token.Pos, st *absState) {
	for i, v := range vals {
		if i >= len(f.rets) {
			break
		}
		if !f.retsValid {
			f.rets[i] = v
		} else {
			f.rets[i] = f.rets[i].join(v)
		}
	}
	if len(vals) > 0 {
		f.retsValid = true
	}
	if !f.sink {
		return
	}
	fc, ok := f.ct.funcs[f.fn]
	if !ok || len(fc.result) == 0 || len(vals) != 1 {
		return
	}
	v := vals[0]
	var expr ast.Expr
	if len(exprs) == 1 {
		expr = exprs[0]
	}
	for _, a := range fc.result {
		if f.atomProvenFor(a, v, expr, st) {
			continue
		}
		f.addObl(pos, "returned value cannot be proven to satisfy //inv: %s of %s (computed %s)",
			a.describe(), f.fn.Name(), v)
	}
}

func (f *intervalFlow) isTerminalCall(call *ast.CallExpr) bool {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := f.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	callee, _ := f.p.calleeOf(call)
	return callee != nil && f.prog.isTerminal(callee)
}

// ---- assignment and writes ----

func (f *intervalFlow) assign(s *ast.AssignStmt, st *absState) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			// Tuple assignment from one call: per-result summary.
			f.evalForEffects(s.Rhs[0], st)
			vals := f.callResults(s.Rhs[0], st, len(s.Lhs))
			for i, lhs := range s.Lhs {
				f.writeTo(lhs, vals[i], nil, token.ILLEGAL, st)
			}
			return
		}
		// Parallel semantics: evaluate every rhs before any write.
		vals := make([]ival, len(s.Rhs))
		for i, r := range s.Rhs {
			vals[i] = f.eval(r, st)
		}
		for i, lhs := range s.Lhs {
			if i < len(vals) {
				f.writeTo(lhs, vals[i], s.Rhs[i], token.ASSIGN, st)
			}
		}
	default: // op-assign
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		lhs, rhs := s.Lhs[0], s.Rhs[0]
		old := f.lhsIval(lhs, st)
		rv := f.eval(rhs, st)
		var nv ival
		switch s.Tok {
		case token.ADD_ASSIGN:
			nv = old.add(rv)
			f.noteAccum(lhs, true, s.TokPos, st)
		case token.SUB_ASSIGN:
			nv = old.sub(rv)
			f.noteAccum(lhs, false, s.TokPos, st)
		case token.MUL_ASSIGN:
			nv = old.mul(rv)
		case token.QUO_ASSIGN:
			nv = old.div(rv)
		case token.REM_ASSIGN:
			nv = old.rem(rv)
		default:
			nv = topIval()
		}
		f.writeOpAssign(lhs, nv, rhs, rv, s.Tok, st)
	}
}

// callResults evaluates a multi-result call into per-result intervals.
func (f *intervalFlow) callResults(e ast.Expr, st *absState, n int) []ival {
	out := make([]ival, n)
	for i := range out {
		out[i] = topIval()
	}
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return out
	}
	callee, iface := f.p.calleeOf(call)
	if callee == nil {
		return out
	}
	sums := f.summariesFor(callee, iface)
	for i := range out {
		if i < len(sums) {
			out[i] = sums[i]
		}
	}
	return out
}

// lhsIval is the current abstract value of an assignable expression.
func (f *intervalFlow) lhsIval(lhs ast.Expr, st *absState) ival {
	if obj, _ := f.refObj(lhs); obj != nil {
		return f.stateIval(st, obj)
	}
	return f.eval(lhs, st).meet(typeRange(f.p.Info.TypeOf(lhs)))
}

// refObj resolves an ident or selector to its object; isField reports a
// struct-field target.
func (f *intervalFlow) refObj(e ast.Expr) (types.Object, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := f.p.Info.Uses[e]
		if obj == nil {
			obj = f.p.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return v, v.IsField()
		}
		return nil, false
	case *ast.SelectorExpr:
		if sel, ok := f.p.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return v, true
			}
			return nil, false
		}
		if v, ok := f.p.Info.Uses[e.Sel].(*types.Var); ok { // pkg-qualified var
			return v, false
		}
	}
	return nil, false
}

// writeTo performs a plain (non-op) abstract write.
func (f *intervalFlow) writeTo(lhs ast.Expr, v ival, rhs ast.Expr, tok token.Token, st *absState) {
	obj, isField := f.refObj(lhs)
	if obj == nil {
		return
	}
	st.invalidate(obj)
	if !isNumericType(obj.Type()) {
		return
	}
	st.vals[obj] = v.meet(typeRange(obj.Type()))
	fv, _ := obj.(*types.Var)
	if fv == nil || !isField {
		return
	}
	fc, annotated := f.ct.fields[fv]
	if !annotated || fv.Pkg() != f.p.Types {
		return // write obligations live in the declaring package only
	}
	f.noteWrite(fv, lhs)
	for i, a := range fc.atoms {
		if a.path == nil {
			continue
		}
		key := symKey{fv, i}
		ok := false
		if rhs != nil && tok == token.ASSIGN {
			// Identity: f = cfg.Bound trivially satisfies f <= cfg.Bound.
			if base := f.instanceCanon(lhs); base != "" {
				if bc, okc := atomBoundCanon(base, a); okc {
					objs := map[types.Object]bool{}
					if rc, okr := canonExpr(f.p, rhs, objs); okr && rc == bc {
						ok = true
					}
				}
			}
		}
		if !ok {
			// Numeric bridge: a small constant write satisfies a symbolic
			// bound whose own contract keeps it large enough (qBytes = 0
			// vs qBytes <= cfg.BufferBytes with BufferBytes >= 1).
			ok = f.symNumericBridge(a, v)
		}
		st.sym[key] = ok
	}
}

// writeOpAssign handles += / -= / *= ... including symbolic-atom
// preservation rules.
func (f *intervalFlow) writeOpAssign(lhs ast.Expr, nv ival, rhs ast.Expr, rv ival, tok token.Token, st *absState) {
	obj, isField := f.refObj(lhs)
	if obj == nil {
		return
	}
	fv, _ := obj.(*types.Var)
	var fc *fieldContract
	if fv != nil && isField && fv.Pkg() == f.p.Types {
		fc = f.ct.fields[fv]
	}
	// Consume facts BEFORE the write invalidates them.
	var preserved map[int]bool
	if fc != nil {
		preserved = map[int]bool{}
		base := f.instanceCanon(lhs)
		for i, a := range fc.atoms {
			if a.path == nil {
				continue
			}
			key := symKey{fv, i}
			held, tracked := st.sym[key]
			holds := !tracked || held
			keep := false
			switch tok {
			case token.ADD_ASSIGN:
				if a.upper {
					// f += e keeps f <= B when the guard already proved
					// f + e <= B on this path.
					if base != "" {
						if bc, okc := atomBoundCanon(base, a); okc {
							objs := map[types.Object]bool{}
							lc, okl := canonExpr(f.p, lhs, objs)
							rc, okr := canonExpr(f.p, rhs, objs)
							if okl && okr {
								if _, okf := st.factHolds("("+lc+"+"+rc+")", bc); okf {
									keep = true
								}
							}
						}
					}
				} else {
					keep = holds && rv.lo >= 0 // adding non-negative keeps lower bounds
				}
			case token.SUB_ASSIGN:
				if a.upper {
					keep = holds && rv.lo >= 0 // subtracting non-negative keeps upper bounds
				} else {
					keep = holds && rv.hi <= 0
				}
			}
			preserved[i] = keep || f.symNumericBridge(a, nv)
		}
	}
	st.invalidate(obj)
	if isNumericType(obj.Type()) {
		st.vals[obj] = nv.meet(typeRange(obj.Type()))
	}
	if fc != nil {
		f.noteWrite(fv, lhs)
		for i, a := range fc.atoms {
			if a.path == nil {
				continue
			}
			st.sym[symKey{fv, i}] = preserved[i]
		}
	}
}

// symNumericBridge proves a symbolic atom from numbers alone: the written
// value's extreme against the one-level numeric contract of the bound.
func (f *intervalFlow) symNumericBridge(a atom, v ival) bool {
	term, ok := a.path[len(a.path)-1].(*types.Var)
	if !ok {
		return false
	}
	bc, ok := f.ct.fields[term]
	if !ok {
		return false
	}
	bv := numericIval(bc.atoms)
	if a.upper {
		if a.strict {
			return v.hi < bv.lo
		}
		return v.hi <= bv.lo
	}
	if a.strict {
		return v.lo > bv.hi
	}
	return v.lo >= bv.hi
}

// noteWrite records a write site to an annotated field, remembering the
// instance canon so symbolic bounds can be rendered later.
func (f *intervalFlow) noteWrite(fv *types.Var, lhs ast.Expr) {
	if !f.sink {
		return
	}
	pos := lhs.Pos()
	if prev, ok := f.writes[fv]; !ok || pos > prev {
		f.writes[fv] = pos
	}
	if base := f.instanceCanon(lhs); base != "" {
		f.baseOf[fv] = base
	}
}

// instanceCanon is the canonical form of the instance expression of a
// field access: canon(p) for p.qBytes, "" for a bare ident.
func (f *intervalFlow) instanceCanon(lhs ast.Expr) string {
	sel, ok := unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	objs := map[types.Object]bool{}
	base, ok := canonExpr(f.p, sel.X, objs)
	if !ok {
		return ""
	}
	return base
}

// noteAccum records a narrow-typed accumulation candidate: += / ++ (or
// their downward twins) on a struct field or an element of a field-held
// slice, unless a contract bounds the growing side. Locals are excluded as
// noise (loop counters); only fields accumulate across calls.
func (f *intervalFlow) noteAccum(lhs ast.Expr, up bool, pos token.Pos, st *absState) {
	if !f.sink || f.seenAccum[pos] {
		return
	}
	t := f.p.Info.TypeOf(lhs)
	b, ok := t.(*types.Basic)
	if !ok {
		if named, okN := t.(*types.Named); okN {
			b, ok = named.Underlying().(*types.Basic)
		}
	}
	if !ok || b == nil || b.Info()&types.IsInteger == 0 {
		return
	}
	if !narrowIntKind(b.Kind()) {
		return
	}
	// Field target, or index into a field-held slice/array.
	target := unparen(lhs)
	if ix, okI := target.(*ast.IndexExpr); okI {
		target = unparen(ix.X)
	}
	fv, isField := f.refObj(target)
	if fv == nil || !isField {
		return
	}
	if fvv, okV := fv.(*types.Var); okV {
		if fc, okC := f.ct.fields[fvv]; okC {
			d := f.ct.declaredIval(fc.atoms)
			if up && (!math.IsInf(d.hi, 1) || hasSymAtom(fc, true)) {
				return
			}
			if !up && (!math.IsInf(d.lo, -1) || hasSymAtom(fc, false)) {
				return
			}
		}
	}
	f.seenAccum[pos] = true
	f.accums = append(f.accums, accumSite{pos: pos, expr: types.ExprString(lhs), typ: b, up: up})
}

func hasSymAtom(fc *fieldContract, upper bool) bool {
	for _, a := range fc.atoms {
		if a.path != nil && a.upper == upper {
			return true
		}
	}
	return false
}

// narrowIntKind reports integer kinds the overflow analyzer treats as
// narrow. Plain int/uint count: the module targets 32-bit floors for
// portability, and a cumulative tally that is only safe on 64-bit hosts
// is exactly the bug class this analyzer exists for.
func narrowIntKind(k types.BasicKind) bool {
	switch k {
	case types.Int, types.Int8, types.Int16, types.Int32,
		types.Uint, types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

// checkZeroStruct records obligations for zero-valued declarations of
// structs with annotated fields declared in this package.
func (f *intervalFlow) checkZeroStruct(t types.Type, pos token.Pos, st *absState) {
	if !f.sink {
		return
	}
	stc, ok := derefStruct(t)
	if !ok {
		return
	}
	zero := ival{0, 0}
	for i := 0; i < stc.NumFields(); i++ {
		fv := stc.Field(i)
		fc, okC := f.ct.fields[fv]
		if !okC || fv.Pkg() != f.p.Types {
			continue
		}
		for _, a := range fc.atoms {
			if f.atomProvenValue(a, zero) {
				continue
			}
			f.addObl(pos, "zero value leaves %s.%s unproven against //inv: %s",
				ownerName(fc), fv.Name(), a.describe())
		}
	}
}

func ownerName(fc *fieldContract) string {
	if fc.owner != nil {
		return fc.owner.Name()
	}
	return "?"
}

func (f *intervalFlow) addObl(pos token.Pos, format string, args ...any) {
	if !f.sink || f.seenObl[pos] {
		return
	}
	f.seenObl[pos] = true
	f.obls = append(f.obls, obligation{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// ---- expression evaluation ----

// eval computes the interval of e in st. Constants fold first; every other
// result is met with the expression's static type range.
func (f *intervalFlow) eval(e ast.Expr, st *absState) ival {
	if e == nil {
		return topIval()
	}
	if tv, ok := f.p.Info.Types[e]; ok && tv.Value != nil {
		return constIval(tv.Value)
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return f.eval(e.X, st)
	case *ast.Ident, *ast.SelectorExpr:
		if obj, _ := f.refObj(e); obj != nil {
			return f.stateIval(st, obj)
		}
	case *ast.UnaryExpr:
		switch e.Op {
		case token.SUB:
			return f.eval(e.X, st).neg()
		case token.ADD:
			return f.eval(e.X, st)
		}
	case *ast.BinaryExpr:
		return f.binary(e, st)
	case *ast.CallExpr:
		return f.call(e, st)
	case *ast.FuncLit:
		f.funcLit(e)
	}
	return typeRange(f.p.Info.TypeOf(e))
}

func constIval(v constant.Value) ival {
	switch v.Kind() {
	case constant.Int, constant.Float:
		x, _ := constant.Float64Val(constant.ToFloat(v))
		return ival{x, x}
	}
	return topIval()
}

func (f *intervalFlow) binary(e *ast.BinaryExpr, st *absState) ival {
	x := f.eval(e.X, st)
	y := f.eval(e.Y, st)
	isInt := isIntegerType(f.p.Info.TypeOf(e))
	tr := typeRange(f.p.Info.TypeOf(e))
	var r ival
	switch e.Op {
	case token.ADD:
		r = x.add(y)
	case token.SUB:
		r = x.sub(y)
		// Relational fact: a fact y <= x sharpens x - y to >= 0 (>= 1 for
		// strict integer facts) — the `acked := ackNo - sndUna` shape.
		objs := map[types.Object]bool{}
		cx, okx := canonExpr(f.p, e.X, objs)
		cy, oky := canonExpr(f.p, e.Y, objs)
		if okx && oky {
			if strict, held := st.factHolds(cy, cx); held {
				lo := 0.0
				if strict && isInt {
					lo = 1
				}
				r = r.meet(ival{lo, posInf})
			}
			if strict, held := st.factHolds(cx, cy); held {
				hi := 0.0
				if strict && isInt {
					hi = -1
				}
				r = r.meet(ival{negInf, hi})
			}
		}
	case token.MUL:
		r = x.mul(y)
	case token.QUO:
		r = x.div(y)
	case token.REM:
		r = x.rem(y)
	case token.AND:
		// Two's complement: one non-negative operand makes the AND
		// non-negative and bounds it by that operand.
		switch {
		case x.lo >= 0 && y.lo >= 0:
			r = ival{0, math.Min(x.hi, y.hi)}
		case x.lo >= 0:
			r = ival{0, x.hi}
		case y.lo >= 0:
			r = ival{0, y.hi}
		default:
			r = topIval()
		}
	case token.AND_NOT:
		if x.lo >= 0 {
			r = ival{0, x.hi}
		} else {
			r = topIval()
		}
	case token.OR, token.XOR:
		if x.lo >= 0 && y.lo >= 0 {
			r = ival{0, posInf} // type-range meet bounds the top end
		} else {
			r = topIval()
		}
	case token.SHL:
		if c, ok := constShift(y); ok {
			r = x.mul(ival{math.Ldexp(1, c), math.Ldexp(1, c)})
		} else if x.lo >= 0 {
			r = ival{0, posInf}
		} else {
			r = topIval()
		}
	case token.SHR:
		if c, ok := constShift(y); ok {
			d := math.Ldexp(1, c)
			r = ival{math.Floor(x.lo / d), math.Floor(x.hi / d)}
		} else if x.lo >= 0 {
			r = ival{0, x.hi}
		} else {
			r = topIval()
		}
	default:
		return topIval() // comparisons, logical ops: not numeric
	}
	return r.meet(tr)
}

func constShift(y ival) (int, bool) {
	//lint:allow floateq exact singleton test on interval endpoints: the bounds are either bit-identical or the shift is unknown
	if y.lo == y.hi && y.lo >= 0 && y.lo < 64 && y.lo == math.Trunc(y.lo) {
		return int(y.lo), true
	}
	return 0, false
}

// call evaluates a call: conversions, builtins, then callee summaries and
// result contracts; interface calls join over the implementations the
// call graph resolves.
func (f *intervalFlow) call(call *ast.CallExpr, st *absState) ival {
	tr := typeRange(f.p.Info.TypeOf(call))
	if tv, ok := f.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return f.evalConv(f.p.Info.TypeOf(call), call.Args[0], st)
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := f.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap":
				return ival{0, maxI64f}
			case "min", "max":
				var r ival
				for i, a := range call.Args {
					v := f.eval(a, st)
					if i == 0 {
						r = v
						continue
					}
					if id.Name == "min" {
						r = ival{math.Min(r.lo, v.lo), math.Min(r.hi, v.hi)}
					} else {
						r = ival{math.Max(r.lo, v.lo), math.Max(r.hi, v.hi)}
					}
				}
				return r.meet(tr)
			}
			return tr
		}
	}
	callee, iface := f.p.calleeOf(call)
	if callee == nil {
		return tr
	}
	f.noteCheckCall(call, callee, st)
	f.checkCallArgs(call, callee, st)
	sums := f.summariesFor(callee, iface)
	if len(sums) == 1 {
		return sums[0].meet(tr)
	}
	return tr
}

// summariesFor is the per-result interval summary of a callee, joining
// over implementations for interface methods and meeting any declared
// result contract.
func (f *intervalFlow) summariesFor(callee *types.Func, iface bool) []ival {
	var sums []ival
	if iface {
		for _, impl := range f.prog.implementations(callee) {
			is := f.prog.intervalResultIvals(impl.fn)
			if is == nil {
				sums = nil // an unsummarized implementation: give up
				break
			}
			if sums == nil {
				sums = append([]ival(nil), is...)
			} else {
				for i := range sums {
					if i < len(is) {
						sums[i] = sums[i].join(is[i])
					}
				}
			}
		}
	} else {
		sums = f.prog.intervalResultIvals(callee)
	}
	fc, ok := f.ct.funcs[callee]
	if ok && len(fc.result) > 0 {
		d := f.ct.declaredIval(fc.result)
		if len(sums) == 0 {
			sums = []ival{d}
		} else if len(sums) == 1 {
			sums[0] = sums[0].meet(d)
		}
	}
	return sums
}

// evalConv applies Go conversion semantics: a value that provably fits the
// target keeps its interval; an integer that may not fit wraps (full
// target range); float→int assumes saturating truncation with outward
// rounding.
func (f *intervalFlow) evalConv(target types.Type, arg ast.Expr, st *absState) ival {
	v := f.eval(arg, st)
	tr := typeRange(target)
	if !isIntegerType(target) {
		return v // numeric→float keeps the interval; non-numeric is top anyway
	}
	if isIntegerType(f.p.Info.TypeOf(arg)) {
		if v.lo >= tr.lo && v.hi <= tr.hi {
			return v
		}
		return tr
	}
	return ival{math.Floor(v.lo), math.Ceil(v.hi)}.meet(tr)
}

// evalForEffects walks an expression for its side recordings (calls,
// function literals, composite literals) without needing its value.
func (f *intervalFlow) evalForEffects(e ast.Expr, st *absState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			f.eval(n, st)
			return false // eval descends into args itself via contracts
		case *ast.FuncLit:
			f.funcLit(n)
			return false
		case *ast.CompositeLit:
			f.composite(n, st)
		}
		return true
	})
}

// funcLit interprets a function literal body inline: a fresh entry state
// (its captured fields re-assume their contracts), sharing this flow's
// collectors so writes inside closures still owe their proofs.
func (f *intervalFlow) funcLit(lit *ast.FuncLit) {
	if !f.sink || lit.Body == nil {
		return
	}
	f.stmt(lit.Body, newAbsState())
}

// composite records proof obligations for struct literals of types with
// annotated fields declared in this package — both explicit values and
// the implied zeros of omitted fields.
func (f *intervalFlow) composite(cl *ast.CompositeLit, st *absState) {
	if !f.sink {
		return
	}
	t := f.p.Info.TypeOf(cl)
	stc, ok := derefStruct(t)
	if !ok {
		return
	}
	given := map[*types.Var]ival{}
	keyed := false
	for i, elt := range cl.Elts {
		if kv, okKV := elt.(*ast.KeyValueExpr); okKV {
			keyed = true
			key, okK := kv.Key.(*ast.Ident)
			if !okK {
				continue
			}
			if fv, okF := f.p.Info.Uses[key].(*types.Var); okF {
				given[fv] = f.eval(kv.Value, st)
			}
		} else if i < stc.NumFields() {
			given[stc.Field(i)] = f.eval(elt, st)
		}
	}
	for i := 0; i < stc.NumFields(); i++ {
		fv := stc.Field(i)
		fc, okC := f.ct.fields[fv]
		if !okC || fv.Pkg() != f.p.Types {
			continue
		}
		v, explicit := given[fv]
		if !explicit {
			if !keyed && len(cl.Elts) > 0 {
				continue // positional literal already covered every field
			}
			v = ival{0, 0}
		}
		for _, a := range fc.atoms {
			if f.atomProvenValue(a, v) {
				continue
			}
			f.addObl(cl.Pos(), "composite literal leaves %s.%s unproven against //inv: %s (value %s)",
				ownerName(fc), fv.Name(), a.describe(), v)
		}
	}
}

// ---- contract proof predicates ----

// atomProvenValue checks a numeric proof of one atom for a value: numeric
// atoms compare directly, symbolic atoms go through the numeric bridge.
func (f *intervalFlow) atomProvenValue(a atom, v ival) bool {
	if v.empty() {
		return true // unreachable
	}
	if a.path != nil {
		return f.symNumericBridge(a, v)
	}
	if a.upper {
		if a.strict {
			return v.hi < a.num
		}
		return v.hi <= a.num
	}
	if a.strict {
		return v.lo > a.num
	}
	return v.lo >= a.num
}

// atomProvenFor additionally accepts canonical identity with the symbolic
// bound (returning cfg.MinCwnd itself proves return >= cfg.MinCwnd) and
// one-level numeric implication of the bound's own contract.
func (f *intervalFlow) atomProvenFor(a atom, v ival, expr ast.Expr, st *absState) bool {
	if f.atomProvenValue(a, v) {
		return true
	}
	if a.path == nil {
		return false
	}
	// Declared numeric implication: x >= cfg.MinCwnd with MinCwnd >= 1
	// holds when x provably stays >= ... the bound's numeric contract has
	// already been folded into declaredIval; here try identity.
	if expr == nil {
		return false
	}
	objs := map[types.Object]bool{}
	ec, ok := canonExpr(f.p, expr, objs)
	if !ok {
		return false
	}
	// Identity against the bound path rendered from any base: compare the
	// terminal object chain by suffix.
	suffix := ""
	for _, o := range a.path {
		suffix += "." + objKey(o)
	}
	return strings.HasSuffix(ec, suffix) || ec == suffix[1:]
}

// ---- branch-edge narrowing ----

func (f *intervalFlow) assume(e ast.Expr, st *absState, want bool) {
	if e == nil || st.unreachable {
		return
	}
	switch e := unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			f.assume(e.X, st, !want)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if want {
				f.assume(e.X, st, true)
				f.assume(e.Y, st, true)
			}
		case token.LOR:
			if !want {
				// De Morgan: !(a || b) assumes both negations — the shape
				// of `if g <= 0 || g > 1 { panic }` validation guards.
				f.assume(e.X, st, false)
				f.assume(e.Y, st, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := e.Op
			if !want {
				op = negateCmp(op)
			}
			f.assumeCmp(e.X, op, e.Y, st)
		}
	}
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	default:
		return token.EQL
	}
}

func (f *intervalFlow) assumeCmp(x ast.Expr, op token.Token, y ast.Expr, st *absState) {
	vx := f.eval(x, st)
	vy := f.eval(y, st)
	intX := isIntegerType(f.p.Info.TypeOf(x))
	narrow := func(e ast.Expr, bound ival) {
		obj, _ := f.refObj(e)
		if obj == nil || !isNumericType(obj.Type()) {
			return
		}
		nv := f.stateIval(st, obj).meet(bound)
		st.vals[obj] = nv
	}
	adj := 0.0
	if intX {
		adj = 1
	}
	switch op {
	case token.LSS:
		narrow(x, ival{negInf, vy.hi - adj})
		narrow(y, ival{vx.lo + adj, posInf})
	case token.LEQ:
		narrow(x, ival{negInf, vy.hi})
		narrow(y, ival{vx.lo, posInf})
	case token.GTR:
		narrow(x, ival{vy.lo + adj, posInf})
		narrow(y, ival{negInf, vx.hi - adj})
	case token.GEQ:
		narrow(x, ival{vy.lo, posInf})
		narrow(y, ival{negInf, vx.hi})
	case token.EQL:
		narrow(x, vy)
		narrow(y, vx)
	case token.NEQ:
		return
	}
	// Record the fact, normalized as left <= right.
	objs := map[types.Object]bool{}
	cx, okx := canonExpr(f.p, x, objs)
	cy, oky := canonExpr(f.p, y, objs)
	if !okx || !oky {
		return
	}
	add := func(l, r string, strict bool) {
		st.facts = append(st.facts, fact{left: l, right: r, strict: strict, objs: objs})
	}
	switch op {
	case token.LSS:
		add(cx, cy, true)
	case token.LEQ:
		add(cx, cy, false)
	case token.GTR:
		add(cy, cx, true)
	case token.GEQ:
		add(cy, cx, false)
	case token.EQL:
		add(cx, cy, false)
		add(cy, cx, false)
	}
}

// ---- internal/check recognition and call-site obligations ----

const checkPkgPath = "dctcpplus/internal/check"

// checkValueArgIdx maps a check helper to the index of its asserted value
// (and, where present, its bound argument).
func checkArgIdx(name string) (val, bound int, ok bool) {
	switch name {
	case "Unit", "NonNegative", "NonNegativeDur", "ZeroDur":
		return 1, -1, true
	case "AtLeast", "AtMost":
		return 1, 2, true
	}
	return 0, 0, false
}

// noteCheckCall records internal/check assertion sites: the runtime half
// of the contract, consumed by rangeproof (discharge).
func (f *intervalFlow) noteCheckCall(call *ast.CallExpr, callee *types.Func, st *absState) {
	if !f.sink || callee.Pkg() == nil || callee.Pkg().Path() != checkPkgPath {
		return
	}
	if f.seenCheck[call.Pos()] {
		return
	}
	valIdx, boundIdx, ok := checkArgIdx(callee.Name())
	if !ok || valIdx >= len(call.Args) {
		return
	}
	f.seenCheck[call.Pos()] = true
	ca := checkAssert{fnName: callee.Name(), pos: call.Pos()}
	val := unwrapValueExpr(call.Args[valIdx])
	if obj, isField := f.refObj(val); obj != nil && isField {
		ca.target, _ = obj.(*types.Var)
		if sel, okS := unparen(val).(*ast.SelectorExpr); okS {
			objs := map[types.Object]bool{}
			if base, okB := canonExpr(f.p, sel.X, objs); okB {
				ca.baseCanon = base
			}
		}
	}
	if boundIdx >= 0 && boundIdx < len(call.Args) {
		ca.boundV = f.eval(call.Args[boundIdx], st)
		objs := map[types.Object]bool{}
		if c, okC := canonExpr(f.p, call.Args[boundIdx], objs); okC {
			ca.boundCanon = c
		}
	}
	f.checks = append(f.checks, ca)
}

// unwrapValueExpr strips conversions, parens and unary plus around a check
// helper's value argument, so check.AtMost(..., int64(p.qBytes), ...)
// resolves to the field.
func unwrapValueExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.ADD {
				return e
			}
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) != 1 {
				return e
			}
			return unwrapValueExpr(x.Args[0]) // conversion or accessor: look through
		default:
			return e
		}
	}
}

// checkCallArgs records obligations for call arguments against the
// callee's //inv: parameter contracts.
func (f *intervalFlow) checkCallArgs(call *ast.CallExpr, callee *types.Func, st *absState) {
	if !f.sink || call.Ellipsis.IsValid() {
		return
	}
	fc, ok := f.ct.funcs[callee]
	if !ok || len(fc.params) == 0 {
		return
	}
	node := f.prog.nodes[callee]
	if node == nil {
		return
	}
	var paramVars []*types.Var
	for _, fl := range node.decl.Type.Params.List {
		for _, n := range fl.Names {
			pv, _ := node.pkg.Info.Defs[n].(*types.Var)
			paramVars = append(paramVars, pv)
		}
		if len(fl.Names) == 0 {
			paramVars = append(paramVars, nil)
		}
	}
	sig, _ := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		if i >= len(paramVars) || paramVars[i] == nil {
			continue
		}
		if sig != nil && sig.Variadic() && i >= sig.Params().Len()-1 {
			break
		}
		atoms := fc.params[paramVars[i]]
		if len(atoms) == 0 {
			continue
		}
		v := f.eval(arg, st)
		declared := f.ct.declaredIval(atoms)
		for _, a := range atoms {
			if f.atomProvenFor(a, v, arg, st) {
				continue
			}
			_ = declared
			f.addObl(arg.Pos(), "argument %s cannot be proven to satisfy //inv: %s on parameter %q of %s (computed %s)",
				types.ExprString(arg), a.describe(), paramVars[i].Name(), callee.Name(), v)
		}
	}
}

// ---- summaries lifted over the Program ----

// summary is the per-result interval table for this function after run().
func (f *intervalFlow) summary() []ival {
	sig, _ := f.fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	out := make([]ival, sig.Results().Len())
	for i := range out {
		out[i] = topIval().meet(typeRange(sig.Results().At(i).Type()))
		if f.retsValid && i < len(f.rets) {
			out[i] = f.rets[i].meet(out[i])
		}
	}
	if fc, ok := f.ct.funcs[f.fn]; ok && len(fc.result) > 0 && len(out) == 1 {
		out[0] = out[0].meet(f.ct.declaredIval(fc.result))
	}
	return out
}

// intervalResultIvals answers from the (possibly still converging)
// summary table; nil when the function has no summary yet.
func (prog *Program) intervalResultIvals(fn *types.Func) []ival {
	if prog.intervalSummaries == nil {
		return nil
	}
	return prog.intervalSummaries[fn]
}

// buildIntervalSummaries computes per-function result intervals to a
// bounded descending fixed point over the whole program, in deterministic
// node order (mirrors buildUnitSummaries).
func (prog *Program) buildIntervalSummaries() {
	prog.build()
	if prog.intervalSummaries != nil {
		return
	}
	ct := prog.contracts()
	prog.intervalSummaries = make(map[*types.Func][]ival)
	for pass := 0; pass < summaryPassCap; pass++ {
		changed := false
		for _, n := range prog.order {
			fl := newIntervalFlow(n.pkg, prog, ct, n.decl, n.fn, false)
			fl.run()
			sum := fl.summary()
			old, seen := prog.intervalSummaries[n.fn]
			if !seen || !ivalsEqual(old, sum) {
				prog.intervalSummaries[n.fn] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func ivalsEqual(a, b []ival) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- the shared per-package analysis ----

// unprovenAtom is one contract atom a writer function could not discharge
// statically.
type unprovenAtom struct {
	field    *types.Var
	contract *fieldContract
	atomIdx  int
	pos      token.Pos // last write site
	got      string    // rendered exit interval
	fnName   string
}

// funcIntervalResult is everything the interpreter learned about one
// function, shared by the three interval analyzers.
type funcIntervalResult struct {
	node     *funcNode
	unproven []unprovenAtom
	checks   []checkAssert
	accums   []accumSite
	obls     []obligation
}

type intervalAnalysis struct {
	funcs []*funcIntervalResult
}

// intervalAnalysisOf runs the interpreter once over every function of p
// (cached per package), after the summaries converge.
func (prog *Program) intervalAnalysisOf(p *Package) *intervalAnalysis {
	prog.build()
	if a, ok := prog.intervalResults[p]; ok {
		return a
	}
	prog.buildIntervalSummaries()
	ct := prog.contracts()
	a := &intervalAnalysis{}
	for _, n := range prog.order {
		if n.pkg != p {
			continue
		}
		fl := newIntervalFlow(n.pkg, prog, ct, n.decl, n.fn, true)
		fl.run()
		a.funcs = append(a.funcs, &funcIntervalResult{
			node:     n,
			unproven: fl.finish(),
			checks:   fl.checks,
			accums:   fl.accums,
			obls:     fl.obls,
		})
	}
	if prog.intervalResults == nil {
		prog.intervalResults = make(map[*Package]*intervalAnalysis)
	}
	prog.intervalResults[p] = a
	return a
}

// finish evaluates the exit-state write obligations: for every annotated
// field this function wrote, each contract atom must hold at every exit.
func (f *intervalFlow) finish() []unprovenAtom {
	if len(f.writes) == 0 {
		return nil
	}
	var out []unprovenAtom
	// Deterministic order: fields sorted by their last-write position.
	var fields []*types.Var
	for fv := range f.writes {
		fields = append(fields, fv)
	}
	sort.Slice(fields, func(i, j int) bool { return f.writes[fields[i]] < f.writes[fields[j]] })
	exit := f.exit
	if !f.hasExit {
		return nil // every path panics: nothing escapes
	}
	for _, fv := range fields {
		fc := f.ct.fields[fv]
		v := f.stateIval(exit, fv)
		for i, a := range fc.atoms {
			proven := false
			if a.path == nil {
				proven = f.atomProvenValue(a, v)
			} else {
				held, tracked := exit.sym[symKey{fv, i}]
				proven = !tracked || held
			}
			if proven {
				continue
			}
			out = append(out, unprovenAtom{
				field: fv, contract: fc, atomIdx: i,
				pos: f.writes[fv], got: v.String(), fnName: f.fn.Name(),
			})
		}
	}
	return out
}
