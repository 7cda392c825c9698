package lint

import (
	"go/ast"
	"go/types"
)

// SweepSafety returns the analyzer that keeps sweep job bodies
// data-race-free by construction. A //sweep:job function is executed on a
// worker goroutine with an arbitrary number of siblings; the sweep's
// determinism argument ("a job is a pure function of its Point") holds
// only if the job and everything statically reachable from it never
// *writes* shared state. The analyzer taints the call graph from every
// //sweep:job root — the same whole-module closure hotalloc uses for
// //hot:path — and flags, inside any tainted function:
//
//   - assignments (including +=, ++ and friends) whose destination roots
//     at a package-level variable, directly or through a pointer, index,
//     slice or field path;
//   - the mutating builtins delete, clear and copy applied to a
//     package-level variable.
//
// Reads of package-level state are allowed: configuration tables like
// exp.Protocols are written only during init, and forbidding reads would
// outlaw every lookup table in the simulator. Writes that are genuinely
// safe (an atomic counter behind a sanctioned API) belong behind a method
// of a passed-in object — the telemetry registry is the model — or, as a
// last resort, under a //lint:allow sweepsafety directive with a reason.
func SweepSafety() *Analyzer {
	return &Analyzer{
		Name: "sweepsafety",
		Doc:  "forbid writes to package-level state anywhere reachable from //sweep:job worker bodies",
		Run:  runSweepSafety,
	}
}

func runSweepSafety(p *Package) []Diagnostic {
	if p.Prog == nil {
		return nil
	}
	var out []Diagnostic
	for _, n := range p.Prog.sweepNodesIn(p) {
		where := sweepRootLabel(n.fn, p.Prog.sweepRootsOf(n.fn))

		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.AssignStmt:
				for _, lhs := range node.Lhs {
					if v := p.pkgLevelTarget(lhs); v != nil {
						out = append(out, p.diag("sweepsafety", lhs.Pos(),
							"write to package-level %s in worker-executed sweep code %s: jobs run concurrently and must mutate only job-local state",
							v.Name(), where))
					}
				}
			case *ast.IncDecStmt:
				if v := p.pkgLevelTarget(node.X); v != nil {
					out = append(out, p.diag("sweepsafety", node.X.Pos(),
						"write to package-level %s in worker-executed sweep code %s: jobs run concurrently and must mutate only job-local state",
						v.Name(), where))
				}
			case *ast.CallExpr:
				if name, arg := mutatingBuiltin(p, node); arg != nil {
					if v := p.pkgLevelTarget(arg); v != nil {
						out = append(out, p.diag("sweepsafety", arg.Pos(),
							"%s mutates package-level %s in worker-executed sweep code %s: jobs run concurrently and must mutate only job-local state",
							name, v.Name(), where))
					}
				}
			}
			return true
		})
	}
	return out
}

// pkgLevelTarget resolves the variable a write destination ultimately
// addresses, returning it when it is package-level. It unwraps the
// lvalue's access path (fields, indexes, slices, dereferences): writing
// Global.Field, Global[i], or *GlobalPtr all mutate state shared across
// workers, exactly like writing Global itself.
func (p *Package) pkgLevelTarget(expr ast.Expr) *types.Var {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
					expr = e.Sel // qualified reference: pkg.Var
					continue
				}
			}
			expr = e.X
		case *ast.Ident:
			v, ok := p.Info.Uses[e].(*types.Var)
			if !ok {
				v, ok = p.Info.Defs[e].(*types.Var)
			}
			if !ok || v.Pkg() == nil {
				return nil
			}
			if v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// mutatingBuiltin recognizes the builtins that mutate their first argument
// in place, returning the builtin's name and that argument.
func mutatingBuiltin(p *Package, call *ast.CallExpr) (string, ast.Expr) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return "", nil
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return "", nil
	}
	switch id.Name {
	case "delete", "clear", "copy":
		return id.Name, call.Args[0]
	}
	return "", nil
}
