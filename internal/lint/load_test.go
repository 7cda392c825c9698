package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadTypeError pins the loader's failure mode on a package that does
// not type-check: a descriptive error mentioning the offending file, never
// a panic, and no package handed back for analysis.
func TestLoadTypeError(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("internal/lint/testdata/broken")
	if err == nil {
		t.Fatalf("Load succeeded with %d package(s), want a type error", len(pkgs))
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error does not name the offending file: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "lint: ") {
		t.Errorf("error is not namespaced: %v", err)
	}
}

// TestLoadMissingDir pins the behavior on a directory with no Go files:
// "./..." skips it silently, but naming it directly reports the error.
func TestLoadMissingDir(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("internal/lint/no/such/dir"); err == nil {
		t.Fatal("Load of a nonexistent directory succeeded")
	}
}

// TestLoaderFindsModuleRoot checks the go.mod walk-up from a subdirectory.
func TestLoaderFindsModuleRoot(t *testing.T) {
	loader, err := NewLoader("testdata/src/clean")
	if err != nil {
		t.Fatal(err)
	}
	want, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModuleRoot() != want {
		t.Errorf("module root = %q, want the repository root %q", loader.ModuleRoot(), want)
	}
	pkgs, err := loader.Load("./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "dctcpplus/internal/sim" {
		t.Errorf("loaded %+v, want exactly dctcpplus/internal/sim", pkgs)
	}
}
