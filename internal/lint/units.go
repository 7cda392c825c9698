package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The simulator carries bytes, packets and MSS segments as plain integers
// (buffer occupancy in bytes, counters in packets, windows in segments), so
// nothing in the type system stops "qBytes + droppedPkts". This file holds
// the naming convention the codebase follows — a unit suffix on the
// identifier — which seeds the unitflow analyzer's taint (dataflow.go).

// unitClass is the measurement unit inferred from an identifier's name.
type unitClass int

const (
	unitUnknown unitClass = iota
	unitBytes
	unitPackets
	unitSegments
)

func (u unitClass) String() string {
	switch u {
	case unitBytes:
		return "bytes"
	case unitPackets:
		return "packets"
	case unitSegments:
		return "segments (MSS)"
	case unitMixed:
		return "mixed"
	case unitUnknown:
		return "unknown"
	default:
		panic("lint: unknown unit class")
	}
}

// unitSuffixes maps name endings to unit classes. Longest suffixes are
// listed first within a class so "ReqBytes" resolves before "Bytes" would
// mis-split.
var unitSuffixes = []struct {
	suffix string
	class  unitClass
}{
	{"bytes", unitBytes},
	{"byte", unitBytes},
	{"packets", unitPackets},
	{"packet", unitPackets},
	{"pkts", unitPackets},
	{"pkt", unitPackets},
	{"segments", unitSegments},
	{"segment", unitSegments},
	{"segs", unitSegments},
	{"seg", unitSegments},
	{"mss", unitSegments},
}

// unitOf classifies an expression by the name of its identifier or
// selector field, case-insensitively on the trailing word.
func unitOf(e ast.Expr) unitClass {
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.ParenExpr:
		return unitOf(e.X)
	default:
		return unitUnknown
	}
	return unitOfName(name)
}

// unitOfName classifies an identifier name by its trailing word.
func unitOfName(name string) unitClass {
	lower := strings.ToLower(name)
	for _, s := range unitSuffixes {
		if lower == s.suffix {
			return s.class
		}
		if strings.HasSuffix(lower, s.suffix) {
			idx := len(lower) - len(s.suffix)
			if lower[idx-1] == '_' || (name[idx] >= 'A' && name[idx] <= 'Z') {
				return s.class
			}
		}
	}
	return unitUnknown
}

// mixingOps are the operators for which both operands must share a unit:
// adding or comparing bytes to packets is always a bug, while * and / are
// how units convert.
var mixingOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

// isNumeric reports whether e has a numeric basic type.
func (p *Package) isNumeric(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
