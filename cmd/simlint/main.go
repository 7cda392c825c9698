// Command simlint runs the repository's domain-specific static analysis
// over the module: determinism guards (including everything reachable
// from a hot-path root), sim-time discipline, flow-sensitive unit safety,
// float-equality, telemetry nil-safety, sweep worker-race and cache-key
// checks, hot-path allocation budgets, enum-switch exhaustiveness, the
// //inv: range proofs and narrow-counter overflow, and the //state:
// typestate lifecycles — fifteen analyzers in all (see internal/lint).
//
//	simlint ./...            # lint the whole module (the make check gate)
//	simlint ./internal/tcp   # lint one package
//	simlint -json ./...      # machine-readable diagnostics, one JSON array
//	simlint -sarif ./...     # SARIF 2.1.0 log for CI code scanning
//	simlint -fix ./...       # apply suggested fixes, then re-lint
//	simlint -changed main    # report only packages that differ from a git ref
//	simlint -stale-allow     # also report //lint:allow directives that suppress nothing
//	simlint -list            # print the analyzer suite and exit
//	simlint -version         # print the sweep-cache code-version string
//
// -version prints the same string internal/sweep folds into its cache keys
// (git describe of the working tree), so "which build wrote this cache
// entry" is answerable with the lint binary already on the PATH.
//
// -changed narrows the report, not the analysis: the matched patterns are
// loaded and analyzed exactly once as usual (whole-module passes like the
// call graph need the full picture), and diagnostics are then kept only
// for packages containing a file that differs from the given ref —
// `git diff --name-only <ref>` plus untracked files. Outside a git work
// tree, or with an unresolvable ref, the run fails with status 2.
//
// -stale-allow turns the allowlist audit on: every well-formed
// //lint:allow directive that suppressed no diagnostic in the run is
// reported as a "staleallow" finding and counts toward the exit status,
// so justified exemptions are deleted when the code they excused goes
// away. make lint runs with this flag.
//
// -fix applies every suggested fix attached to a surviving diagnostic
// (simtime's int64→sim.Duration rewrite, floateq's epsilon comparison),
// writes the files, and re-runs the analysis from the rewritten sources;
// the exit status reflects the residual diagnostics, so a fully fixable
// tree converges to 0 in one invocation and -fix is idempotent. When fixes
// from two different analyzers rewrite overlapping byte ranges of one
// file, -fix refuses the whole file with a diagnostic naming both
// analyzers and writes nothing — each rewrite was computed against the
// original source, and composing them would produce code neither analyzer
// checked.
//
// Exit status is a contract, relied on by make check and CI:
//
//	0  every matched package type-checked and produced no diagnostics
//	1  the analysis ran and reported at least one diagnostic
//	2  the analysis could not run: unknown flag, conflicting flags,
//	   unresolvable pattern, or a package that fails to type-check
//
// Text mode prints file:line:col: analyzer: message per finding, with a
// trailing count on stderr. JSON and SARIF modes always print exactly one
// document on stdout (an empty result set when clean), so a consumer may
// parse unconditionally; load errors go to stderr and are signalled only
// by status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"dctcpplus/internal/lint"
	"dctcpplus/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam: parse args, load, lint,
// report, and return the exit status per the contract above.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		sarifOut = fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log on stdout")
		fix      = fs.Bool("fix", false, "apply suggested fixes, then re-run the analysis")
		list     = fs.Bool("list", false, "list the analyzer suite and exit")
		version  = fs.Bool("version", false, "print the sweep-cache code-version string and exit")
		stale    = fs.Bool("stale-allow", false, "also report //lint:allow directives that no longer suppress any diagnostic")
		changed  = fs.String("changed", "", "report only packages containing files that differ from this git ref")
		dir      = fs.String("C", "", "change to this directory before resolving patterns")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "simlint: -json and -sarif are mutually exclusive")
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *version {
		fmt.Fprintln(stdout, sweep.CodeVersion())
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root := *dir
	if root == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		root = cwd
	}

	diags, moduleRoot, status := analyze(root, patterns, analyzers, *stale, stderr)
	if status != 0 {
		return status
	}

	// With -changed, the git question is answered once; the same directory
	// set filters the post-fix re-analysis below too.
	var keep map[string]bool
	if *changed != "" {
		var err error
		keep, err = changedDirs(moduleRoot, *changed)
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		diags = filterToDirs(diags, moduleRoot, keep)
	}

	if *fix {
		n, err := applyAndWrite(diags, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		if n > 0 {
			// Re-analyze from the rewritten sources so the report and the
			// exit status describe the tree as it now stands.
			diags, moduleRoot, status = analyze(root, patterns, analyzers, *stale, stderr)
			if status != 0 {
				return status
			}
			if keep != nil {
				diags = filterToDirs(diags, moduleRoot, keep)
			}
		}
	}

	// Report paths relative to the module root: stable across machines,
	// clickable from the repository checkout.
	for i := range diags {
		if rel, err := filepath.Rel(moduleRoot, diags[i].File); err == nil {
			diags[i].File = rel
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	case *sarifOut:
		doc, err := lint.SARIF(diags, analyzers)
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(doc))
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "simlint: %d diagnostic(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// analyze loads the patterns with a fresh loader and runs the suite,
// returning the diagnostics (with absolute paths), the module root, and a
// non-zero exit status on load failure.
func analyze(root string, patterns []string, analyzers []*lint.Analyzer, stale bool, stderr io.Writer) ([]lint.Diagnostic, string, int) {
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return nil, "", 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return nil, "", 2
	}
	run := lint.Run
	if stale {
		run = lint.RunStale
	}
	return run(pkgs, analyzers), loader.ModuleRoot(), 0
}

// changedDirs asks git which module-relative directories contain files
// that differ from ref — committed edits via diff, plus files git does
// not track yet (a brand-new package differs from every ref). Directories
// are slash-separated, matching what filterToDirs derives from paths.
func changedDirs(root, ref string) (map[string]bool, error) {
	diff, err := gitLines(root, "diff", "--name-only", ref, "--", ".")
	if err != nil {
		return nil, err
	}
	untracked, err := gitLines(root, "ls-files", "--others", "--exclude-standard")
	if err != nil {
		return nil, err
	}
	dirs := make(map[string]bool)
	for _, f := range append(diff, untracked...) {
		dirs[path.Dir(f)] = true
	}
	return dirs, nil
}

// gitLines runs one git subcommand under root and returns its non-empty
// output lines, surfacing git's own stderr (unknown ref, not a work tree)
// as the error text.
func gitLines(root string, args ...string) ([]string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("git %s: %s", args[0], strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("git %s: %v", args[0], err)
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}

// filterToDirs keeps only diagnostics whose file lives in one of the kept
// module-relative directories. Paths are still absolute at this point —
// the module-relative rewrite for display happens after filtering.
func filterToDirs(diags []lint.Diagnostic, root string, keep map[string]bool) []lint.Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			out = append(out, d)
			continue
		}
		if keep[path.Dir(filepath.ToSlash(rel))] {
			out = append(out, d)
		}
	}
	return out
}

// applyAndWrite applies the fixes attached to diags and writes the
// rewritten files, reporting how many files changed.
func applyAndWrite(diags []lint.Diagnostic, stderr io.Writer) (int, error) {
	fixed, err := lint.ApplyFixes(diags)
	if err != nil {
		return 0, err
	}
	nFixes := 0
	for _, d := range diags {
		if d.Fix != nil {
			nFixes++
		}
	}
	files := make([]string, 0, len(fixed))
	for file := range fixed {
		files = append(files, file)
	}
	sort.Strings(files) // write in deterministic order
	for _, file := range files {
		if err := os.WriteFile(file, fixed[file], 0o644); err != nil {
			return 0, err
		}
	}
	if len(fixed) > 0 {
		fmt.Fprintf(stderr, "simlint: applied %d fix(es) to %d file(s)\n", nFixes, len(fixed))
	}
	return len(fixed), nil
}
