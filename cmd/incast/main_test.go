package main

import (
	"testing"
	"time"

	"dctcpplus/internal/cliflag/cliflagtest"
)

func TestValidateFlags(t *testing.T) {
	const (
		rto = 200 * time.Millisecond
		jit = 4 * time.Millisecond
	)
	cases := []struct {
		name           string
		rounds, warmup int
		total, perflow int64
		rtoMin, jitter time.Duration
		wantErr        bool
	}{
		{"defaults", 50, 10, 1 << 20, 0, rto, jit, false},
		{"perflow overrides total", 50, 10, 0, 64 << 10, rto, jit, false},
		{"zero warmup", 1, 0, 1 << 20, 0, rto, jit, false},
		{"zero jitter", 50, 10, 1 << 20, 0, rto, 0, false},
		{"zero rounds", 0, 0, 1 << 20, 0, rto, jit, true},
		{"negative rounds", -5, 0, 1 << 20, 0, rto, jit, true},
		{"negative warmup", 50, -1, 1 << 20, 0, rto, jit, true},
		{"warmup swallows rounds", 10, 10, 1 << 20, 0, rto, jit, true},
		{"zero byte budget", 50, 10, 0, 0, rto, jit, true},
		{"negative total", 50, 10, -1, 0, rto, jit, true},
		{"negative perflow", 50, 10, 1 << 20, -4096, rto, jit, true},
		{"zero rtomin", 50, 10, 1 << 20, 0, 0, jit, true},
		{"negative jitter", 50, 10, 1 << 20, 0, rto, -time.Millisecond, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.rounds, c.warmup, c.total, c.perflow, c.rtoMin, c.jitter)
			if (err != nil) != c.wantErr {
				t.Errorf("validateFlags = %v, wantErr=%v", err, c.wantErr)
			}
		})
	}
}

func TestParseFaultGen(t *testing.T) {
	cases := []struct {
		spec        string
		wantNil     bool
		wantClasses int
		wantErr     bool
	}{
		{"", true, 0, false},
		{"all", false, 6, false},
		{"blackout", false, 1, false},
		{"loss,stall", false, 2, false},
		{"blackout, rate ", false, 2, false},
		{"bogus", false, 0, true},
		{"loss,,stall", false, 0, true},
	}
	for _, c := range cases {
		gen, err := parseFaultGen(c.spec, 7)
		if (err != nil) != c.wantErr {
			t.Errorf("parseFaultGen(%q) err = %v, wantErr=%v", c.spec, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if (gen == nil) != c.wantNil {
			t.Errorf("parseFaultGen(%q) nil = %v, want %v", c.spec, gen == nil, c.wantNil)
			continue
		}
		if gen == nil {
			continue
		}
		if gen.Seed != 7 {
			t.Errorf("parseFaultGen(%q) seed = %d, want 7", c.spec, gen.Seed)
		}
		if len(gen.Classes) != c.wantClasses {
			t.Errorf("parseFaultGen(%q) classes = %d, want %d", c.spec, len(gen.Classes), c.wantClasses)
		}
	}
}

// The shared flag helpers live in internal/cliflag; these run its cases
// for the helpers this command's flags go through.
func TestParseInts(t *testing.T)           { cliflagtest.PositiveInts(t) }
func TestValidateSweepFlags(t *testing.T)  { cliflagtest.ValidateSweep(t) }
func TestValidateOracleFlags(t *testing.T) { cliflagtest.ValidateOracle(t) }
