package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	dcp "dctcpplus"
	"dctcpplus/internal/cliflag"
)

// buildSpec assembles the declarative grid from the flag surface. The
// Spec's own Validate (run by the runner) is the semantic gate; this layer
// only parses.
func buildSpec(name, protocols, flows, rtomin, seeds, topos, faults string,
	faultSeed uint64, rounds, warmup int, total, per int64, jitter time.Duration) (dcp.SweepSpec, error) {
	flowCounts, err := cliflag.PositiveInts(flows)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	rtoMins, err := parseDurations(rtomin)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	seedList, err := parseUints(seeds)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	return dcp.SweepSpec{
		Name:         name,
		Protocols:    cliflag.SplitCSV(protocols),
		Flows:        flowCounts,
		RTOMins:      rtoMins,
		Seeds:        seedList,
		Topos:        cliflag.SplitCSV(topos),
		Faults:       parseFaultPlans(faults),
		FaultSeed:    faultSeed,
		Rounds:       rounds,
		WarmupRounds: warmup,
		TotalBytes:   total,
		BytesPerFlow: per,
		Jitter:       dcp.Duration(jitter),
	}, nil
}

// parseFaultPlans splits the semicolon-separated plan list, mapping the
// explicit "none" spelling to the empty (clean) plan.
func parseFaultPlans(spec string) []string {
	var out []string
	for _, plan := range strings.Split(spec, ";") {
		plan = strings.TrimSpace(plan)
		if plan == "none" {
			plan = ""
		}
		out = append(out, plan)
	}
	return out
}

func parseUints(csv string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseDurations(csv string) ([]dcp.Duration, error) {
	var out []dcp.Duration
	for _, f := range strings.Split(csv, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(f))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad duration %q", f)
		}
		out = append(out, dcp.Duration(d))
	}
	return out, nil
}
