package lint

import (
	"go/types"
)

// Overflow reports unbounded accumulation in code reachable from
// //hot:path or //sweep:job roots — the code that runs once per packet or
// once per sweep job, where "only overflows at N=2000×seed scale" is
// exactly the class no test tier catches. It flags x++, x += e and their
// downward twins on narrow integer struct fields. Per-function intervals
// cannot bound cross-call growth, so the only static discharge is an
// //inv: contract bounding the growing side; everything else must widen
// to int64. Plain int/uint count as narrow: a tally that is only safe on
// 64-bit hosts is a latent port bug. Locals are exempt (loop counters
// don't accumulate across calls).
func Overflow() *Analyzer {
	return &Analyzer{
		Name: "overflow",
		Doc:  "flag unbounded narrow-integer accumulation in hot/sweep-reachable code",
		Run:  runOverflow,
	}
}

func runOverflow(p *Package) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	var out []Diagnostic
	res := prog.intervalAnalysisOf(p)
	for _, fr := range res.funcs {
		label, reachable := reachLabel(prog, fr.node.fn)
		if !reachable {
			continue
		}
		for _, ac := range fr.accums {
			dir := "grows without an upper bound"
			if !ac.up {
				dir = "shrinks without a lower bound"
			}
			out = append(out, p.diag("overflow", ac.pos,
				"%s-typed accumulation %s %s and can wrap %s; widen to int64 or bound it with an //inv: contract",
				ac.typ.Name(), ac.expr, dir, label))
		}
	}
	return out
}

// reachLabel reports hot/sweep reachability with the witness provenance
// suffix used by the other call-graph analyzers.
func reachLabel(prog *Program, fn *types.Func) (string, bool) {
	if roots := prog.hotRootsOf(fn); len(roots) > 0 {
		return rootLabel(fn, roots), true
	}
	if roots := prog.sweepRootsOf(fn); len(roots) > 0 {
		return sweepRootLabel(fn, roots), true
	}
	return "", false
}
