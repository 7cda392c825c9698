package lint

import (
	"go/ast"
	"go/token"
)

// UnitFlow returns the analyzer that flags arithmetic and assignments
// mixing byte-, packet- and segment-valued quantities. Beyond two suffixed
// names meeting at one operator (qBytes + droppedPkts), it tracks the unit
// a *value* carries through name-neutral intermediaries, so
//
//	q := link.Bytes()   // q is tainted bytes
//	port.pkts = q       // flagged: bytes value flows into packets field
//
// is caught even though neither line mixes two suffixed names. Taint is
// seeded by the same suffix convention (see unitOf), enters through
// assignments, declarations, range statements and call results — including
// results of module functions summarized interprocedurally over the shared
// call graph (see dataflow.go) — and is checked wherever a value meets a
// unit commitment: an assignment to a suffixed variable or field, a keyed
// struct literal, an argument bound to a suffixed parameter, a return into
// a suffixed result, or an additive/comparison operator joining two taints.
// Multiplication and division are the legal conversion forms
// (pkts * MSS = bytes) and stay silent.
func UnitFlow() *Analyzer {
	return &Analyzer{
		Name: "unitflow",
		Doc:  "track byte/packet/segment taint through assignments and calls; flag cross-unit flows",
		Run:  runUnitFlow,
	}
}

func runUnitFlow(p *Package) []Diagnostic {
	if p.Prog == nil {
		return nil
	}
	p.Prog.buildUnitSummaries()
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			uf := newUnitFlow(p, p.Prog, fd)
			uf.sink = func(pos token.Pos, format string, args ...any) {
				out = append(out, p.diag("unitflow", pos, format, args...))
			}
			uf.pass()
		}
	}
	return out
}
