package main

import (
	"testing"

	"dctcpplus/internal/cliflag/cliflagtest"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name           string
		rounds, warmup int
		wantErr        bool
	}{
		{"defaults", 50, 10, false},
		{"paper scale", 1000, 10, false},
		{"single measured round", 1, 0, false},
		{"zero rounds", 0, 0, true},
		{"negative rounds", -1, 0, true},
		{"negative warmup", 50, -2, true},
		{"warmup equals rounds", 10, 10, true},
		{"warmup exceeds rounds", 10, 20, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.rounds, c.warmup)
			if (err != nil) != c.wantErr {
				t.Errorf("validateFlags(%d, %d) = %v, wantErr=%v", c.rounds, c.warmup, err, c.wantErr)
			}
		})
	}
}

// The shared flag helpers live in internal/cliflag; these run its cases
// for the helpers this command's flags go through.
func TestValidateSweepFlags(t *testing.T) { cliflagtest.ValidateSweep(t) }
