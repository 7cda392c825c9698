package main

import (
	"testing"
	"time"

	dcp "dctcpplus"
	"dctcpplus/internal/cliflag/cliflagtest"
)

func TestBuildSpec(t *testing.T) {
	spec, err := buildSpec("t", "dctcp+,dctcp", "40,80", "200ms,10ms", "1,2,3",
		"default,hull", "none;all;loss,delay", 7, 50, 10, 1<<20, 0, 4*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Protocols) != 2 || len(spec.Flows) != 2 || len(spec.RTOMins) != 2 ||
		len(spec.Seeds) != 3 || len(spec.Topos) != 2 || len(spec.Faults) != 3 {
		t.Fatalf("spec dimensions wrong: %+v", spec)
	}
	if spec.Faults[0] != "" || spec.Faults[1] != "all" || spec.Faults[2] != "loss,delay" {
		t.Fatalf("fault plans wrong: %v", spec.Faults)
	}
	if spec.RTOMins[1] != 10*dcp.Millisecond {
		t.Fatalf("rtomin parse wrong: %v", spec.RTOMins)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("built spec does not validate: %v", err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2*3*2*3 {
		t.Fatalf("expanded %d jobs, want 144", len(jobs))
	}

	bad := []struct{ flows, rtomin, seeds string }{
		{"40,zero", "200ms", "1"},
		{"40", "200", "1"}, // missing unit
		{"40", "-5ms", "1"},
		{"40", "200ms", "minus-one"},
	}
	for _, b := range bad {
		if _, err := buildSpec("t", "dctcp", b.flows, b.rtomin, b.seeds,
			"default", "none", 1, 50, 10, 1<<20, 0, time.Millisecond); err == nil {
			t.Errorf("buildSpec accepted flows=%q rtomin=%q seeds=%q", b.flows, b.rtomin, b.seeds)
		}
	}
}

// The shared flag helpers live in internal/cliflag; these run its cases
// for the helpers this command's flags go through.
func TestValidateSweepFlags(t *testing.T)  { cliflagtest.ValidateSweep(t) }
func TestValidateOracleFlags(t *testing.T) { cliflagtest.ValidateOracle(t) }
