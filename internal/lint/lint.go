// Package lint implements simlint, the repository's domain-specific static
// analysis pass. The paper's results are reproducible only if the simulator
// is bit-for-bit deterministic under a fixed seed and keeps its units
// straight; simlint turns those conventions into machine-checked rules
// using nothing but the standard library (go/parser, go/ast, go/token,
// go/types — the module is dependency-free and must stay that way).
//
// Fifteen analyzers ship with the pass:
//
//   - nondeterminism: wall-clock reads, math/rand, order-sensitive map
//     iteration, and goroutine spawns inside simulation-scheduled code —
//     with no file or package allowance for code reachable from a
//     //hot:path root.
//   - simtime: raw int64/float64 durations crossing exported boundaries of
//     packages where the sim.Time/sim.Duration types are available
//     (carries an autofix rewriting int64 carriers to sim.Duration).
//   - unitflow: byte/packet/segment unit mixing — taint seeded by the
//     identifier-suffix convention and tracked through assignments, calls
//     and returns by the dataflow engine (see dataflow.go), with
//     per-function summaries lifted interprocedurally over the call graph.
//   - floateq: ==/!= on floating-point operands outside tests (carries an
//     autofix rewriting to an epsilon comparison).
//   - telemetrysafety: instrument methods that dereference their receiver
//     without the nil-guard idiom the telemetry layer is built on.
//   - hotalloc: heap-allocating constructs in //hot:path functions and
//     everything statically reachable from them (whole-module call graph
//     with interface calls over-approximated by method signature).
//   - exhaustive: switches over module enum types must cover every declared
//     constant or carry a panicking default.
//   - sweepsafety: writes to package-level state anywhere reachable from
//     //sweep:job worker bodies.
//   - sharedstate: unsynchronized writes to captured variables inside
//     concurrently executed closures (pool.ForEach literals, goroutines in
//     sweep-reachable code).
//   - cachekey: completeness proof that every field of a
//     //cache:key-annotated struct flows into its cache-key method.
//   - rangeproof: interval abstract interpretation of //inv: range
//     contracts on struct fields and function params/results (see
//     interval.go, contracts.go); writes the prover cannot discharge at
//     function exit must carry an internal/check assertion that implies
//     the contract, in the writer's own function.
//   - overflow: unbounded narrow-integer accumulation in //hot:path- or
//     //sweep:job-reachable code.
//   - poollife: path-sensitive typestate proof of the //state: pooled
//     protocols (see typestate.go) — use-after-free, double-free and
//     leak-on-path for pooled packets, with escape into long-lived
//     structs sanctioned only inside //state: sink functions.
//   - handlestate: the //state: handle protocols — Cancel on a
//     possibly-dead scheduler handle, transition misuse (Timer
//     Reset/Stop), and the clear-field-first rule for re-arming
//     callbacks.
//   - ownxfer: ownership-transfer signature hygiene — consuming a
//     borrowed parameter, returning a pooled object without a //state:
//     mint contract, malformed //state: directives, and
//     interface/implementation contract agreement.
//
// Intentional exceptions are declared inline with a directive comment on
// the offending line (or the line above):
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: an allowlist entry is documentation, and a bare
// directive is itself reported as a diagnostic. A small number of built-in
// path allowlists (wall-clock metadata in cmd/ and the telemetry manifest)
// are documented on the analyzers that apply them.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it, a
// human-readable message, and optionally a machine-applicable fix.
type Diagnostic struct {
	File     string        `json:"file"`
	Line     int           `json:"line"`
	Col      int           `json:"col"`
	Analyzer string        `json:"analyzer"`
	Message  string        `json:"message"`
	Fix      *SuggestedFix `json:"fix,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named rule set run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-line description (cmd/simlint -help lists it).
	Doc string
	// Run inspects one package and returns its raw findings; the runner
	// applies allow directives afterwards.
	Run func(p *Package) []Diagnostic
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Nondeterminism(),
		SimTime(),
		FloatEq(),
		TelemetrySafety(),
		Hotalloc(),
		Exhaustive(),
		SweepSafety(),
		UnitFlow(),
		SharedState(),
		CacheKey(),
		RangeProof(),
		Overflow(),
		Poollife(),
		HandleState(),
		OwnXfer(),
	}
}

// diag constructs a Diagnostic at pos.
func (p *Package) diag(name string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	}
}

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzers map[string]bool
	reason    string
	line      int // the source line the directive appears on
}

const directivePrefix = "//lint:allow"

// parseDirectives extracts //lint:allow comments from a file. A directive
// suppresses matching diagnostics on its own line and, when it stands alone
// on a line, on the line directly below — the same placement rules as
// //nolint in common linters.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			fields := strings.Fields(rest)
			d := directive{
				analyzers: make(map[string]bool),
				line:      fset.Position(c.Pos()).Line,
			}
			if len(fields) > 0 {
				for _, name := range strings.Split(fields[0], ",") {
					d.analyzers[name] = true
				}
				d.reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
			}
			out = append(out, d)
		}
	}
	return out
}

// applyDirectives filters diags through the package's allow directives and
// appends a diagnostic for every malformed (reason-less) directive: the
// allowlist policy requires each exception to say why it exists. With
// reportStale set it additionally reports every well-formed directive that
// suppressed nothing as a "staleallow" finding — a justified exemption
// that has outlived the diagnostic it justified is rot, not documentation.
func applyDirectives(p *Package, diags []Diagnostic, reportStale bool) []Diagnostic {
	type key struct {
		file string
		line int
	}
	type allowEntry struct {
		d    directive
		file string
		used bool
	}
	var entries []*allowEntry
	allowed := make(map[key][]*allowEntry)
	var out []Diagnostic
	for _, f := range p.Files {
		file := p.Fset.Position(f.Pos()).Filename
		for _, d := range parseDirectives(p.Fset, f) {
			if len(d.analyzers) == 0 || d.reason == "" {
				out = append(out, Diagnostic{
					File:     file,
					Line:     d.line,
					Col:      1,
					Analyzer: "directive",
					Message:  "malformed //lint:allow directive: want \"//lint:allow <analyzer> <reason>\"",
				})
				continue
			}
			e := &allowEntry{d: d, file: file}
			entries = append(entries, e)
			// Cover the directive's own line and the next one, so both
			// trailing and standalone placements work.
			allowed[key{file, d.line}] = append(allowed[key{file, d.line}], e)
			allowed[key{file, d.line + 1}] = append(allowed[key{file, d.line + 1}], e)
		}
	}
	for _, dg := range diags {
		suppressed := false
		// Mark every covering directive used, not just the first match: a
		// directive is stale only if no diagnostic at all lands on it.
		for _, e := range allowed[key{dg.File, dg.Line}] {
			if e.d.analyzers[dg.Analyzer] {
				suppressed = true
				e.used = true
			}
		}
		if !suppressed {
			out = append(out, dg)
		}
	}
	if reportStale {
		for _, e := range entries {
			if e.used {
				continue
			}
			names := make([]string, 0, len(e.d.analyzers))
			for name := range e.d.analyzers {
				names = append(names, name)
			}
			sort.Strings(names)
			out = append(out, Diagnostic{
				File:     e.file,
				Line:     e.d.line,
				Col:      1,
				Analyzer: "staleallow",
				Message: fmt.Sprintf("stale //lint:allow %s directive: it suppresses no diagnostic on this or the next line; delete it (or move it back beside the finding it justifies)",
					strings.Join(names, ",")),
			})
		}
	}
	return out
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics sorted by file, line, column and analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return runSuite(pkgs, analyzers, false)
}

// RunStale is Run plus stale-directive reporting: every well-formed
// //lint:allow that suppresses no diagnostic in this run is itself
// reported (analyzer "staleallow"), so exemptions cannot rot in place.
func RunStale(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return runSuite(pkgs, analyzers, true)
}

func runSuite(pkgs []*Package, analyzers []*Analyzer, reportStale bool) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			raw = append(raw, a.Run(p)...)
		}
		out = append(out, applyDirectives(p, raw, reportStale)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Deduplicate: a function reachable from several annotation roots is
	// visited once per root witness list, and a single root's label already
	// names every root — identical (position, analyzer, message) findings
	// collapse to one.
	deduped := out[:0]
	for i, d := range out {
		if i > 0 && sameFinding(d, out[i-1]) {
			continue
		}
		deduped = append(deduped, d)
	}
	return deduped
}

// sameFinding reports whether two diagnostics are the same finding (the Fix
// pointer is excluded from identity: equal findings carry equal fixes).
func sameFinding(a, b Diagnostic) bool {
	return a.File == b.File && a.Line == b.Line && a.Col == b.Col &&
		a.Analyzer == b.Analyzer && a.Message == b.Message
}

// importsSim reports whether the package imports the simulation engine (or
// is the engine itself) — the scope condition for the analyzers that only
// make sense where sim.Time/sim.Duration are available.
func (p *Package) importsSim() bool {
	if p.ImportPath == simPkgPath {
		return true
	}
	for _, imp := range p.Types.Imports() {
		if imp.Path() == simPkgPath {
			return true
		}
	}
	return false
}

// simPkgPath is the import path of the discrete-event engine.
const simPkgPath = "dctcpplus/internal/sim"

// isPkgIdent reports whether expr is an identifier resolving to the named
// imported package (e.g. the "time" in time.Now).
func (p *Package) isPkgIdent(expr ast.Expr, path string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// basicKind returns the basic kind of e's type, or types.Invalid when the
// type is unknown or not basic.
func (p *Package) basicKind(e ast.Expr) types.BasicKind {
	t := p.Info.TypeOf(e)
	if t == nil {
		return types.Invalid
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return types.Invalid
	}
	return b.Kind()
}

// isFloat reports whether e has floating-point type.
func (p *Package) isFloat(e ast.Expr) bool {
	k := p.basicKind(e)
	return k == types.Float32 || k == types.Float64 ||
		k == types.UntypedFloat
}
