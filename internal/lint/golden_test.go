package lint

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixtures' expect.txt golden files")

// TestFixtures runs the full analyzer suite over each fixture package under
// testdata/src and compares the rendered diagnostics against the package's
// expect.txt. Each violation fixture triggers exactly one diagnostic from
// one analyzer; the clean fixture expects none.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			// A fresh loader per fixture keeps each fixture's call graph
			// isolated: a //hot:path root in one fixture must not mark
			// functions of another fixture hot-reachable through the shared
			// Program.
			loader, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := loader.Load("internal/lint/testdata/src/" + name)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("loaded %d packages, want 1", len(pkgs))
			}
			diags := Run(pkgs, All())
			var b strings.Builder
			for _, d := range diags {
				// Base names keep the golden files machine-independent.
				d.File = filepath.Base(d.File)
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			golden := filepath.Join("testdata", "src", name, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixtureAnalyzerCoverage asserts the violation fixtures collectively
// exercise every analyzer plus the directive policy, so a new analyzer
// cannot ship without a fixture.
func TestFixtureAnalyzerCoverage(t *testing.T) {
	want := map[string]bool{"directive": true}
	for _, a := range All() {
		want[a.Name] = true
	}
	got := make(map[string]bool)
	paths, err := filepath.Glob(filepath.Join("testdata", "src", "*", "expect.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			parts := strings.SplitN(line, ": ", 3)
			if len(parts) == 3 {
				got[parts[1]] = true
			}
		}
	}
	var missing []string
	for name := range want {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("no fixture triggers analyzer(s): %s", strings.Join(missing, ", "))
	}
}

// TestModuleIsClean is the acceptance criterion in test form: the shipped
// tree carries zero diagnostics and no //lint:allow directive that
// suppresses nothing (the same audit as simlint -stale-allow).
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, d := range RunStale(pkgs, All()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
