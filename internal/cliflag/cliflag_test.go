package cliflag_test

import (
	"slices"
	"testing"

	"dctcpplus/internal/cliflag"
	"dctcpplus/internal/cliflag/cliflagtest"
)

func TestValidateSweep(t *testing.T)  { cliflagtest.ValidateSweep(t) }
func TestValidateOracle(t *testing.T) { cliflagtest.ValidateOracle(t) }
func TestPositiveInts(t *testing.T)   { cliflagtest.PositiveInts(t) }

func TestSplitCSV(t *testing.T) {
	cases := []struct {
		csv  string
		want []string
	}{
		{"dctcp+,dctcp", []string{"dctcp+", "dctcp"}},
		{" default , hull ", []string{"default", "hull"}},
		{"tcp,,dctcp", []string{"tcp", "dctcp"}},
		{"", nil},
	}
	for _, c := range cases {
		if got := cliflag.SplitCSV(c.csv); !slices.Equal(got, c.want) {
			t.Errorf("SplitCSV(%q) = %q, want %q", c.csv, got, c.want)
		}
	}
}
