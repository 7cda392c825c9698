// Package cliflag holds the flag parsing and validation the commands share:
// the sweep-orchestration and oracle-trace checks, the oracle failure exit,
// and the comma-separated list parsers.
package cliflag

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ValidateSweep rejects orchestration settings a sweep runner cannot
// honor: the worker pool needs at least one worker, the cache directory's
// parent must already exist (a typo'd path should fail loudly, not mint a
// directory tree), and resume without a cache is meaningless.
func ValidateSweep(jobs int, cacheDir string, resume bool) error {
	switch {
	case jobs < 1:
		return fmt.Errorf("-jobs %d: need at least one worker", jobs)
	case resume && cacheDir == "":
		return fmt.Errorf("-resume: requires -cache-dir (resume replays the cache)")
	}
	if cacheDir != "" {
		parent := filepath.Dir(filepath.Clean(cacheDir))
		if fi, err := os.Stat(parent); err != nil || !fi.IsDir() {
			return fmt.Errorf("-cache-dir %s: parent directory %s does not exist", cacheDir, parent)
		}
	}
	return nil
}

// ValidateOracle ties the trace output to the checker: an -oracle-trace
// without -oracle would silently never be written, and (like -cache-dir) a
// typo'd trace path should fail at the flag boundary, not after the sweep.
func ValidateOracle(oracle bool, trace string) error {
	if trace == "" {
		return nil
	}
	if !oracle {
		return fmt.Errorf("-oracle-trace: requires -oracle (the trace renders oracle violations)")
	}
	parent := filepath.Dir(filepath.Clean(trace))
	if fi, err := os.Stat(parent); err != nil || !fi.IsDir() {
		return fmt.Errorf("-oracle-trace %s: parent directory %s does not exist", trace, parent)
	}
	return nil
}

// FailOracle renders a sweep's conformance violations to stderr — and to
// the -oracle-trace file, which CI uploads as the failure artifact — then
// exits nonzero.
func FailOracle(tool string, total int64, lines []string, trace string) {
	for _, ln := range lines {
		fmt.Fprintln(os.Stderr, ln)
	}
	if trace != "" {
		data := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(trace, []byte(data), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: oracle trace -> %s\n", tool, trace)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d oracle violations\n", tool, total)
	os.Exit(1)
}

// PositiveInts parses a comma-separated list of flow counts; every entry
// must be a positive integer.
func PositiveInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad flow count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// SplitCSV splits a comma-separated list, trimming spaces and dropping
// empty entries.
func SplitCSV(csv string) []string {
	var out []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
