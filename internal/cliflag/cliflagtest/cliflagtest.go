// Package cliflagtest holds the table tests of package cliflag. They are
// exported so a command that validates its flags through cliflag can run
// the same cases under its own test names.
package cliflagtest

import (
	"testing"

	"dctcpplus/internal/cliflag"
)

// ValidateSweep runs the cliflag.ValidateSweep cases as subtests.
func ValidateSweep(t *testing.T) {
	parent := t.TempDir()
	cases := []struct {
		name     string
		jobs     int
		cacheDir string
		resume   bool
		wantErr  bool
	}{
		{"defaults, no cache", 4, "", false, false},
		{"single worker", 1, "", false, false},
		{"cache under existing parent", 2, parent + "/cache", false, false},
		{"resume with cache", 2, parent + "/cache", true, false},
		{"zero jobs", 0, "", false, true},
		{"negative jobs", -3, "", false, true},
		{"nonexistent cache parent", 2, parent + "/no/such/cache", false, true},
		{"resume without cache", 2, "", true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := cliflag.ValidateSweep(c.jobs, c.cacheDir, c.resume)
			if (err != nil) != c.wantErr {
				t.Errorf("ValidateSweep(%d, %q, %v) = %v, wantErr=%v",
					c.jobs, c.cacheDir, c.resume, err, c.wantErr)
			}
		})
	}
}

// ValidateOracle runs the cliflag.ValidateOracle cases as subtests.
func ValidateOracle(t *testing.T) {
	parent := t.TempDir()
	cases := []struct {
		name    string
		oracle  bool
		trace   string
		wantErr bool
	}{
		{"both off", false, "", false},
		{"oracle without trace", true, "", false},
		{"oracle with trace", true, parent + "/viol.txt", false},
		{"trace without oracle", false, parent + "/viol.txt", true},
		{"nonexistent trace parent", true, parent + "/no/such/viol.txt", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := cliflag.ValidateOracle(c.oracle, c.trace)
			if (err != nil) != c.wantErr {
				t.Errorf("ValidateOracle(%v, %q) = %v, wantErr=%v",
					c.oracle, c.trace, err, c.wantErr)
			}
		})
	}
}

// PositiveInts runs the cliflag.PositiveInts cases.
func PositiveInts(t *testing.T) {
	cases := []struct {
		csv     string
		want    []int
		wantErr bool
	}{
		{"10,20,40", []int{10, 20, 40}, false},
		{" 1 , 2 ", []int{1, 2}, false},
		{"200", []int{200}, false},
		{"", nil, true},
		{"10,,20", nil, true},
		{"0", nil, true},
		{"-3", nil, true},
		{"ten", nil, true},
	}
	for _, c := range cases {
		got, err := cliflag.PositiveInts(c.csv)
		if (err != nil) != c.wantErr {
			t.Errorf("PositiveInts(%q) err = %v, wantErr=%v", c.csv, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("PositiveInts(%q) = %v, want %v", c.csv, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PositiveInts(%q)[%d] = %d, want %d", c.csv, i, got[i], c.want[i])
			}
		}
	}
}
