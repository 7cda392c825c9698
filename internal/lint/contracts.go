package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file implements the //inv: range-contract annotation layer: the
// grammar, its parser, and the whole-program contract table the interval
// analyzers (rangeproof, overflow) consume.
//
// A contract is a conjunction of comparisons attached to a struct field or
// to a function's parameters/results:
//
//	// alpha is the congestion-extent estimate.
//	//inv: 0 <= alpha && alpha <= 1
//	alpha float64
//
//	// clampCwnd bounds a window value to [MinCwnd, MaxCwnd].
//	//inv: return >= 1
//	func (s *Sender) clampCwnd(w float64) float64 { ... }
//
// Grammar (decimal literals only; one //inv: line may carry several
// clauses, and a declaration may carry several //inv: lines):
//
//	contract := clause { "&&" clause }
//	clause   := operand cmp operand { cmp operand }   // chains: 0 <= x <= 1
//	cmp      := "<" | "<=" | ">" | ">="
//	operand  := number | path
//	path     := ident { "." ident }
//
// Exactly one side of every comparison must be the contract's subject: the
// field name, a parameter name, a named result, or the keyword "return"
// (the function's single result). The other side is the bound — a numeric
// literal, or a symbolic path resolving through sibling fields (for field
// contracts: "cfg.BufferBytes" names the sibling field cfg, then its
// BufferBytes field) or receiver fields and parameters (for function
// contracts). Strict integer bounds normalize away (x > 0 becomes x >= 1);
// strict float bounds keep their strictness through proof checking.
//
// Malformed contracts are themselves diagnostics (analyzer "rangeproof"),
// never panics: the parser reports the byte offset of the first error, a
// property the fuzz test pins.

// invOperand is one parsed comparison operand: a number or a dotted path.
type invOperand struct {
	isNum bool
	num   float64
	path  []string
	off   int // byte offset in the contract text, for error positions
}

// invClause is one parsed comparison, already split out of && conjunctions
// and chained comparisons.
type invClause struct {
	lhs, rhs invOperand
	op       token.Token // LSS, LEQ, GTR, GEQ
	src      string      // rendered clause text for diagnostics
}

// invError is a contract parse error carrying the byte offset of the
// offending token within the //inv: payload.
type invError struct {
	off int
	msg string
}

func (e *invError) Error() string { return fmt.Sprintf("offset %d: %s", e.off, e.msg) }

// invLexer tokenizes a contract payload.
type invLexer struct {
	s   string
	pos int
}

type invTokKind int

const (
	invEOF invTokKind = iota
	invIdent
	invNumber
	invDot
	invAndAnd
	invCmp // text holds the operator
)

type invTok struct {
	kind invTokKind
	text string
	off  int
}

func (l *invLexer) next() (invTok, error) {
	for l.pos < len(l.s) && (l.s[l.pos] == ' ' || l.s[l.pos] == '\t') {
		l.pos++
	}
	if l.pos >= len(l.s) {
		return invTok{kind: invEOF, off: l.pos}, nil
	}
	start := l.pos
	c := l.s[l.pos]
	switch {
	case c == '.':
		l.pos++
		return invTok{kind: invDot, text: ".", off: start}, nil
	case c == '&':
		if l.pos+1 < len(l.s) && l.s[l.pos+1] == '&' {
			l.pos += 2
			return invTok{kind: invAndAnd, text: "&&", off: start}, nil
		}
		return invTok{}, &invError{start, "single '&' (want \"&&\")"}
	case c == '<' || c == '>':
		op := string(c)
		l.pos++
		if l.pos < len(l.s) && l.s[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return invTok{kind: invCmp, text: op, off: start}, nil
	case c == '=':
		return invTok{}, &invError{start, "'==' and '=' are not contract operators (declare a range with <= and >=)"}
	case c >= '0' && c <= '9' || c == '-' || c == '+':
		l.pos++
		for l.pos < len(l.s) {
			d := l.s[l.pos]
			if d >= '0' && d <= '9' || d == '.' || d == 'e' || d == 'E' {
				l.pos++
				continue
			}
			if (d == '+' || d == '-') && (l.s[l.pos-1] == 'e' || l.s[l.pos-1] == 'E') {
				l.pos++
				continue
			}
			break
		}
		return invTok{kind: invNumber, text: l.s[start:l.pos], off: start}, nil
	case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		l.pos++
		for l.pos < len(l.s) {
			d := l.s[l.pos]
			if d == '_' || d >= 'a' && d <= 'z' || d >= 'A' && d <= 'Z' || d >= '0' && d <= '9' {
				l.pos++
				continue
			}
			break
		}
		return invTok{kind: invIdent, text: l.s[start:l.pos], off: start}, nil
	default:
		return invTok{}, &invError{start, fmt.Sprintf("unexpected character %q", c)}
	}
}

// invParser is a one-token-lookahead recursive-descent parser.
type invParser struct {
	lex invLexer
	tok invTok
}

func (p *invParser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// parseInv parses one //inv: payload into its comparison clauses.
func parseInv(s string) ([]invClause, error) {
	p := &invParser{lex: invLexer{s: s}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == invEOF {
		return nil, &invError{p.tok.off, "empty contract"}
	}
	var out []invClause
	for {
		clauses, err := p.parseChain()
		if err != nil {
			return nil, err
		}
		out = append(out, clauses...)
		if p.tok.kind == invEOF {
			return out, nil
		}
		if p.tok.kind != invAndAnd {
			return nil, &invError{p.tok.off, fmt.Sprintf("unexpected %q (want \"&&\" or end of contract)", p.tok.text)}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// parseChain parses operand cmp operand { cmp operand } into one clause
// per adjacent pair. Chains must keep one direction (0 <= x <= 1 is fine,
// 0 <= x >= 1 is an error).
func (p *invParser) parseChain() ([]invClause, error) {
	ops := []invOperand{}
	first, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	ops = append(ops, first)
	var cmps []invTok
	for p.tok.kind == invCmp {
		cmps = append(cmps, p.tok)
		if err := p.advance(); err != nil {
			return nil, err
		}
		o, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	if len(cmps) == 0 {
		return nil, &invError{p.tok.off, "operand without a comparison"}
	}
	dir := cmps[0].text[0]
	var out []invClause
	for i, c := range cmps {
		if c.text[0] != dir {
			return nil, &invError{c.off, "mixed comparison directions in one chain"}
		}
		out = append(out, invClause{
			lhs: ops[i],
			rhs: ops[i+1],
			op:  cmpToken(c.text),
			src: renderOperand(ops[i]) + " " + c.text + " " + renderOperand(ops[i+1]),
		})
	}
	return out, nil
}

func cmpToken(s string) token.Token {
	switch s {
	case "<":
		return token.LSS
	case "<=":
		return token.LEQ
	case ">":
		return token.GTR
	default:
		return token.GEQ
	}
}

func (p *invParser) parseOperand() (invOperand, error) {
	//lint:allow exhaustive any other token here is a parse error in user input, reported to the annotation author instead of panicking
	switch p.tok.kind {
	case invNumber:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return invOperand{}, &invError{p.tok.off, fmt.Sprintf("bad numeric literal %q (decimal literals only)", p.tok.text)}
		}
		o := invOperand{isNum: true, num: v, off: p.tok.off}
		return o, p.advance()
	case invIdent:
		o := invOperand{path: []string{p.tok.text}, off: p.tok.off}
		if err := p.advance(); err != nil {
			return invOperand{}, err
		}
		for p.tok.kind == invDot {
			if err := p.advance(); err != nil {
				return invOperand{}, err
			}
			if p.tok.kind != invIdent {
				return invOperand{}, &invError{p.tok.off, "expected identifier after '.'"}
			}
			o.path = append(o.path, p.tok.text)
			if err := p.advance(); err != nil {
				return invOperand{}, err
			}
		}
		return o, nil
	default:
		return invOperand{}, &invError{p.tok.off, fmt.Sprintf("expected a number or identifier, got %q", p.tok.text)}
	}
}

func renderOperand(o invOperand) string {
	if o.isNum {
		return strconv.FormatFloat(o.num, 'g', -1, 64)
	}
	return strings.Join(o.path, ".")
}

// atom is one normalized contract bound: subject <= bound (upper) or
// subject >= bound (lower). The bound is numeric, or a symbolic path of
// resolved field/parameter objects rooted at a sibling of the subject.
type atom struct {
	upper  bool
	strict bool    // float subjects only; integer strictness normalizes away
	num    float64 // numeric bound when path is nil
	path   []types.Object
	src    string // original clause text for diagnostics
}

// describe renders the atom as the original clause for diagnostics.
func (a atom) describe() string { return a.src }

// fieldContract is the parsed, resolved contract of one annotated struct
// field.
type fieldContract struct {
	field *types.Var
	owner *types.TypeName // the declaring named struct type
	atoms []atom
	pos   token.Pos
}

// funcContract carries the parameter and result contracts of one function.
type funcContract struct {
	params map[*types.Var][]atom
	result []atom // atoms on the single result ("return" or its name)
}

// contractTable is the whole-program contract index, built once per
// Program and invalidated when the graph rebuilds.
type contractTable struct {
	fields map[*types.Var]*fieldContract
	funcs  map[*types.Func]*funcContract
	// errs are parse/resolution failures, reported by rangeproof in the
	// package where the annotation lives.
	errs []Diagnostic
}

const invPrefix = "//inv:"

// invPayload returns the text after the //inv: marker, accepting both the
// raw spelling and the "// inv:" form gofmt's doc-comment printer produces
// (the colon is followed by a space, so the line is not a compiler
// directive and formatting inserts the space). A contract must not stop
// binding because the file was formatted.
func invPayload(c *ast.Comment) (string, bool) {
	if rest, ok := strings.CutPrefix(c.Text, invPrefix); ok {
		return rest, true
	}
	if rest, ok := strings.CutPrefix(c.Text, "// inv:"); ok {
		return rest, true
	}
	return "", false
}

// invLines extracts the //inv: payloads of a comment group in order.
func invLines(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if rest, ok := invPayload(c); ok {
				out = append(out, strings.TrimSpace(rest))
			}
		}
	}
	return out
}

// invComments returns the comments (doc then trailing) of a field that may
// carry //inv: lines, with their positions for error reporting.
func invPos(groups ...*ast.CommentGroup) token.Pos {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if _, ok := invPayload(c); ok {
				return c.Pos()
			}
		}
	}
	return token.NoPos
}

// contracts returns the program's contract table, building it on first
// use.
func (prog *Program) contracts() *contractTable {
	prog.build()
	if prog.contractTable != nil {
		return prog.contractTable
	}
	t := &contractTable{
		fields: make(map[*types.Var]*fieldContract),
		funcs:  make(map[*types.Func]*funcContract),
	}
	for _, p := range prog.pkgs {
		t.collectPackage(p)
	}
	prog.contractTable = t
	return t
}

func (t *contractTable) collectPackage(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					t.collectStruct(p, ts, st)
				}
			case *ast.FuncDecl:
				t.collectFunc(p, d)
			}
		}
	}
}

// collectStruct parses the //inv: annotations on one struct type's fields.
func (t *contractTable) collectStruct(p *Package, ts *ast.TypeSpec, st *ast.StructType) {
	tn, _ := p.Info.Defs[ts.Name].(*types.TypeName)
	for _, field := range st.Fields.List {
		lines := invLines(field.Doc, field.Comment)
		if len(lines) == 0 {
			continue
		}
		pos := invPos(field.Doc, field.Comment)
		if len(field.Names) != 1 {
			t.errs = append(t.errs, p.diag("rangeproof", pos,
				"//inv: contract requires exactly one field name per declaration"))
			continue
		}
		name := field.Names[0]
		fv, ok := p.Info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		if !isNumericType(fv.Type()) {
			t.errs = append(t.errs, p.diag("rangeproof", pos,
				"//inv: contract on non-numeric field %s", name.Name))
			continue
		}
		fc := &fieldContract{field: fv, owner: tn, pos: pos}
		for _, line := range lines {
			clauses, err := parseInv(line)
			if err != nil {
				t.errs = append(t.errs, p.diag("rangeproof", pos,
					"malformed //inv: contract on %s: %v", name.Name, err))
				continue
			}
			atoms, err := t.bindAtoms(p, clauses, name.Name, fv.Type(), func(path []string) ([]types.Object, error) {
				return resolveSiblingPath(fv, path)
			})
			if err != nil {
				t.errs = append(t.errs, p.diag("rangeproof", pos,
					"//inv: contract on %s: %v", name.Name, err))
				continue
			}
			fc.atoms = append(fc.atoms, atoms...)
		}
		if len(fc.atoms) > 0 {
			t.fields[fv] = fc
		}
	}
}

// collectFunc parses the //inv: annotations in a function's doc comment.
// Each clause's subject is a parameter name, a named result, or the
// keyword "return" for a function with one unnamed result.
func (t *contractTable) collectFunc(p *Package, d *ast.FuncDecl) {
	lines := invLines(d.Doc)
	if len(lines) == 0 {
		return
	}
	pos := invPos(d.Doc)
	fn, ok := p.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	subjects := make(map[string]types.Object) // params and named results
	for _, par := range flattenParams(p, d.Type.Params) {
		if par.name != "" {
			if obj := paramObj(p, d.Type.Params, par.name); obj != nil {
				subjects[par.name] = obj
			}
		}
	}
	var resultNames []string
	if d.Type.Results != nil {
		for _, fl := range d.Type.Results.List {
			for _, n := range fl.Names {
				resultNames = append(resultNames, n.Name)
			}
		}
	}
	fc := &funcContract{params: make(map[*types.Var][]atom)}
	sig, _ := fn.Type().(*types.Signature)
	resolver := func(path []string) ([]types.Object, error) {
		return resolveFuncPath(p, d, sig, path)
	}
	for _, line := range lines {
		clauses, err := parseInv(line)
		if err != nil {
			t.errs = append(t.errs, p.diag("rangeproof", pos,
				"malformed //inv: contract on %s: %v", d.Name.Name, err))
			continue
		}
		for _, cl := range clauses {
			subject, isResult, err := clauseSubject(cl, subjects, resultNames)
			if err != nil {
				t.errs = append(t.errs, p.diag("rangeproof", pos,
					"//inv: contract on %s: %v", d.Name.Name, err))
				continue
			}
			var subjType types.Type
			if isResult {
				if sig == nil || sig.Results().Len() != 1 {
					t.errs = append(t.errs, p.diag("rangeproof", pos,
						"//inv: result contract on %s requires exactly one result", d.Name.Name))
					continue
				}
				subjType = sig.Results().At(0).Type()
			} else {
				subjType = subjects[subject].Type()
			}
			atoms, err := t.bindAtoms(p, []invClause{cl}, subject, subjType, resolver)
			if err != nil {
				t.errs = append(t.errs, p.diag("rangeproof", pos,
					"//inv: contract on %s: %v", d.Name.Name, err))
				continue
			}
			if isResult {
				fc.result = append(fc.result, atoms...)
			} else {
				pv := subjects[subject].(*types.Var)
				fc.params[pv] = append(fc.params[pv], atoms...)
			}
		}
	}
	if len(fc.params) > 0 || len(fc.result) > 0 {
		t.funcs[fn] = fc
	}
}

// clauseSubject finds which side of a clause is the function contract's
// subject. Returns the subject name and whether it is the result.
func clauseSubject(cl invClause, subjects map[string]types.Object, resultNames []string) (string, bool, error) {
	isSubj := func(o invOperand) (string, bool, bool) {
		if o.isNum || len(o.path) != 1 {
			return "", false, false
		}
		name := o.path[0]
		if name == "return" {
			return name, true, true
		}
		for _, rn := range resultNames {
			if rn == name {
				return name, true, true
			}
		}
		if _, ok := subjects[name]; ok {
			return name, false, true
		}
		return "", false, false
	}
	ln, lres, lok := isSubj(cl.lhs)
	rn, rres, rok := isSubj(cl.rhs)
	switch {
	case lok && rok:
		return "", false, fmt.Errorf("clause %q relates two subjects; one side must be a bound", cl.src)
	case lok:
		return ln, lres, nil
	case rok:
		return rn, rres, nil
	default:
		return "", false, fmt.Errorf("clause %q names no parameter, named result, or \"return\"", cl.src)
	}
}

// bindAtoms normalizes parsed clauses against the subject name: the
// subject must appear alone on exactly one side, the other side becomes
// the bound. Integer strict bounds are normalized to inclusive ones.
func (t *contractTable) bindAtoms(p *Package, clauses []invClause, subject string, subjType types.Type, resolve func([]string) ([]types.Object, error)) ([]atom, error) {
	intSubject := isIntegerType(subjType)
	var out []atom
	for _, cl := range clauses {
		lhsIsSubj := !cl.lhs.isNum && len(cl.lhs.path) == 1 && cl.lhs.path[0] == subject
		rhsIsSubj := !cl.rhs.isNum && len(cl.rhs.path) == 1 && cl.rhs.path[0] == subject
		// The "return" keyword stands for the subject in result contracts.
		if subject == "return" {
			lhsIsSubj = !cl.lhs.isNum && len(cl.lhs.path) == 1 && cl.lhs.path[0] == "return"
			rhsIsSubj = !cl.rhs.isNum && len(cl.rhs.path) == 1 && cl.rhs.path[0] == "return"
		}
		if lhsIsSubj == rhsIsSubj {
			return nil, fmt.Errorf("clause %q must have %s on exactly one side", cl.src, subject)
		}
		bound := cl.rhs
		op := cl.op
		if rhsIsSubj {
			bound = cl.lhs
			// Flip: bound op subject  ==  subject flip(op) bound.
			switch op {
			case token.LSS:
				op = token.GTR
			case token.LEQ:
				op = token.GEQ
			case token.GTR:
				op = token.LSS
			case token.GEQ:
				op = token.LEQ
			}
		}
		a := atom{
			upper:  op == token.LSS || op == token.LEQ,
			strict: op == token.LSS || op == token.GTR,
			src:    cl.src,
		}
		if bound.isNum {
			a.num = bound.num
		} else {
			objs, err := resolve(bound.path)
			if err != nil {
				return nil, fmt.Errorf("clause %q: %v", cl.src, err)
			}
			a.path = objs
		}
		if intSubject && a.strict && a.path == nil {
			// x > 0 is x >= 1 for integers; x < 10 is x <= 9.
			if a.upper {
				a.num--
			} else {
				a.num++
			}
			a.strict = false
		}
		out = append(out, a)
	}
	return out, nil
}

// resolveSiblingPath resolves a symbolic bound path for a field contract:
// the first element names a sibling field of the same struct, later
// elements walk nested struct fields.
func resolveSiblingPath(subject *types.Var, path []string) ([]types.Object, error) {
	owner, ok := fieldOwner(subject)
	if !ok {
		return nil, fmt.Errorf("cannot resolve %q: subject is not a struct field", strings.Join(path, "."))
	}
	return walkFieldPath(owner, path)
}

// fieldOwner finds the struct type a field variable belongs to.
func fieldOwner(fv *types.Var) (*types.Struct, bool) {
	if !fv.IsField() {
		return nil, false
	}
	// The declaring struct is found through the package scope: every named
	// type is checked for containing fv.
	scope := fv.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fv {
				return st, true
			}
		}
	}
	return nil, false
}

// walkFieldPath resolves path[0] as a field of st and the rest through
// nested (possibly named or pointer) struct types.
func walkFieldPath(st *types.Struct, path []string) ([]types.Object, error) {
	out := make([]types.Object, 0, len(path))
	cur := st
	for i, name := range path {
		var next *types.Var
		for j := 0; j < cur.NumFields(); j++ {
			if cur.Field(j).Name() == name {
				next = cur.Field(j)
				break
			}
		}
		if next == nil {
			return nil, fmt.Errorf("no field %q", strings.Join(path[:i+1], "."))
		}
		out = append(out, next)
		if i == len(path)-1 {
			if !isNumericType(next.Type()) {
				return nil, fmt.Errorf("bound %q is not numeric", strings.Join(path, "."))
			}
			return out, nil
		}
		nst, ok := derefStruct(next.Type())
		if !ok {
			return nil, fmt.Errorf("%q is not a struct", strings.Join(path[:i+1], "."))
		}
		cur = nst
	}
	return out, nil
}

// resolveFuncPath resolves a symbolic bound in a function contract: the
// first element is a parameter or a receiver field, the rest walk nested
// structs.
func resolveFuncPath(p *Package, d *ast.FuncDecl, sig *types.Signature, path []string) ([]types.Object, error) {
	if obj := paramObj(p, d.Type.Params, path[0]); obj != nil {
		if len(path) == 1 {
			if !isNumericType(obj.Type()) {
				return nil, fmt.Errorf("bound %q is not numeric", path[0])
			}
			return []types.Object{obj}, nil
		}
		st, ok := derefStruct(obj.Type())
		if !ok {
			return nil, fmt.Errorf("parameter %q is not a struct", path[0])
		}
		rest, err := walkFieldPath(st, path[1:])
		if err != nil {
			return nil, err
		}
		return append([]types.Object{obj}, rest...), nil
	}
	if sig != nil && sig.Recv() != nil {
		if st, ok := derefStruct(sig.Recv().Type()); ok {
			return walkFieldPath(st, path)
		}
	}
	return nil, fmt.Errorf("cannot resolve %q (not a parameter or receiver field)", strings.Join(path, "."))
}

// paramObj finds the declared object of a named parameter.
func paramObj(p *Package, params *ast.FieldList, name string) types.Object {
	if params == nil {
		return nil
	}
	for _, f := range params.List {
		for _, n := range f.Names {
			if n.Name == name {
				return p.Info.Defs[n]
			}
		}
	}
	return nil
}

// derefStruct unwraps pointers and named types down to a struct.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// isIntegerType reports whether t is an integer (of any width).
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// numericIval is the interval implied by a contract's numeric atoms alone
// (symbolic atoms contribute nothing here; declaredIval folds them in).
func numericIval(atoms []atom) ival {
	v := topIval()
	for _, a := range atoms {
		if a.path != nil {
			continue
		}
		if a.upper {
			v = v.meet(ival{lo: negInf, hi: a.num})
		} else {
			v = v.meet(ival{lo: a.num, hi: posInf})
		}
	}
	return v
}

// declaredIval is the interval a reader may assume for an annotated
// subject: numeric atoms directly, plus the one-level numeric implication
// of symbolic bounds (x >= cfg.MinCwnd with MinCwnd >= 1 implies x >= 1).
func (t *contractTable) declaredIval(atoms []atom) ival {
	v := numericIval(atoms)
	for _, a := range atoms {
		if a.path == nil {
			continue
		}
		term, ok := a.path[len(a.path)-1].(*types.Var)
		if !ok {
			continue
		}
		bc, ok := t.fields[term]
		if !ok {
			continue
		}
		bv := numericIval(bc.atoms)
		if a.upper {
			// x <= B and B <= bv.hi imply x <= bv.hi.
			v = v.meet(ival{lo: negInf, hi: bv.hi})
		} else {
			v = v.meet(ival{lo: bv.lo, hi: posInf})
		}
	}
	return v
}
