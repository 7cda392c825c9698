package lint

import (
	"go/types"
	"math"
)

// RangeProof reports writes to //inv:-annotated fields that the interval
// interpreter cannot prove to respect the declared range at function exit
// and that no internal/check assertion in the same function discharges —
// plus call arguments, return values and composite literals that violate
// function contracts, and malformed //inv: annotations themselves.
//
// The static and runtime sides are two halves of one contract: a write the
// prover discharges needs no assertion, a write it cannot discharge must
// carry one (check.Unit, check.AtLeast, ...) in the same function so the
// invariant is enforced where it can break. An assertion that does not
// imply the contract (a drifted floor, an unrelated field) discharges
// nothing, so the write stays flagged.
func RangeProof() *Analyzer {
	return &Analyzer{
		Name: "rangeproof",
		Doc:  "prove //inv: range contracts at writer exits via interval abstract interpretation, or demand an internal/check assertion",
		Run:  runRangeProof,
	}
}

func runRangeProof(p *Package) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	ct := prog.contracts()
	var out []Diagnostic

	// Malformed or unresolvable contracts declared in this package.
	inPkg := map[string]bool{}
	for _, f := range p.Files {
		inPkg[p.Fset.Position(f.Pos()).Filename] = true
	}
	for _, d := range ct.errs {
		if inPkg[d.File] {
			out = append(out, d)
		}
	}

	res := prog.intervalAnalysisOf(p)
	for _, fr := range res.funcs {
		for _, ua := range fr.unproven {
			if dischargedBy(fr.checks, ua, ct) {
				continue
			}
			fc := ua.contract
			out = append(out, p.diag("rangeproof", ua.pos,
				"cannot prove //inv: %s for %s.%s at exit of %s (computed %s); clamp the write or add a named internal/check assertion",
				fc.atoms[ua.atomIdx].describe(), ownerName(fc), ua.field.Name(), ua.fnName, ua.got))
		}
		for _, ob := range fr.obls {
			out = append(out, p.diag("rangeproof", ob.pos, "%s", ob.msg))
		}
	}
	return out
}

// dischargedBy reports whether some check.* assertion in the same function
// covers the unproven atom: the asserted field matches and the assertion
// implies the atom's bound.
func dischargedBy(checks []checkAssert, ua unprovenAtom, ct *contractTable) bool {
	a := ua.contract.atoms[ua.atomIdx]
	for _, c := range checks {
		if c.target != ua.field {
			continue
		}
		if dischargesAtom(c, a, ct) {
			return true
		}
	}
	return false
}

// dischargesAtom is the static↔runtime mapping: which check helper proves
// which kind of contract atom.
func dischargesAtom(c checkAssert, a atom, ct *contractTable) bool {
	// Symbolic bound of the atom, rendered against the check's own
	// instance expression so check.AtMost(.., int64(p.qBytes),
	// int64(p.cfg.BufferBytes)) matches //inv: qBytes <= cfg.BufferBytes.
	symCanon, hasSym := atomBoundCanon(c.baseCanon, a)
	boundLo, boundHi := symBoundNumeric(a, ct)
	switch c.fnName {
	case "Unit": // asserts 0 <= v <= 1 (and rejects NaN)
		if a.upper {
			if a.path != nil {
				return 1 <= boundLo
			}
			if a.strict {
				return 1 < a.num
			}
			return 1 <= a.num
		}
		if a.path != nil {
			return boundHi <= 0
		}
		if a.strict {
			return a.num < 0
		}
		return a.num <= 0
	case "NonNegative", "NonNegativeDur": // asserts v >= 0
		if a.upper {
			return false
		}
		if a.path != nil {
			return boundHi <= 0
		}
		if a.strict {
			return a.num < 0
		}
		return a.num <= 0
	case "ZeroDur": // asserts v == 0
		if a.upper {
			if a.path != nil {
				return 0 <= boundLo
			}
			if a.strict {
				return 0 < a.num
			}
			return 0 <= a.num
		}
		if a.path != nil {
			return boundHi <= 0
		}
		if a.strict {
			return a.num < 0
		}
		return a.num <= 0
	case "AtLeast": // asserts v >= bound
		if a.upper {
			return false
		}
		if hasSym && c.boundCanon == symCanon {
			return true
		}
		if a.path != nil {
			return boundHi <= c.boundV.lo
		}
		if a.strict {
			return c.boundV.lo > a.num
		}
		return c.boundV.lo >= a.num
	case "AtMost": // asserts v <= bound
		if !a.upper {
			return false
		}
		if hasSym && c.boundCanon == symCanon {
			return true
		}
		if a.path != nil {
			return c.boundV.hi <= boundLo
		}
		if a.strict {
			return c.boundV.hi < a.num
		}
		return c.boundV.hi <= a.num
	}
	return false
}

// symBoundNumeric is the one-level numeric contract range of a symbolic
// atom's bound field ([1, +inf] for cfg.BufferBytes with BufferBytes >= 1);
// [-inf, +inf] when the bound has no contract of its own.
func symBoundNumeric(a atom, ct *contractTable) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if a.path == nil {
		return lo, hi
	}
	if v, ok := a.path[len(a.path)-1].(*types.Var); ok {
		if fc, okc := ct.fields[v]; okc {
			iv := numericIval(fc.atoms)
			return iv.lo, iv.hi
		}
	}
	return lo, hi
}
