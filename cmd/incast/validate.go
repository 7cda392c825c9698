package main

import (
	"fmt"
	"time"

	dcp "dctcpplus"
)

// validateFlags rejects option combinations the sweep cannot run: the
// experiment needs at least one measured round, a positive byte budget and
// a positive RTO. Catching these at the flag boundary turns a hung or
// panicking sweep into a usage error.
func validateFlags(rounds, warmup int, total, perflow int64, rtoMin, jitter time.Duration) error {
	switch {
	case rounds <= 0:
		return fmt.Errorf("-rounds %d: need at least one round", rounds)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: cannot be negative", warmup)
	case warmup >= rounds:
		return fmt.Errorf("-warmup %d >= -rounds %d: no measured rounds remain", warmup, rounds)
	case perflow < 0:
		return fmt.Errorf("-perflow %d: cannot be negative", perflow)
	case perflow == 0 && total <= 0:
		return fmt.Errorf("-total %d: need a positive byte budget (or set -perflow)", total)
	case rtoMin <= 0:
		return fmt.Errorf("-rtomin %v: must be positive", rtoMin)
	case jitter < 0:
		return fmt.Errorf("-jitter %v: cannot be negative", jitter)
	}
	return nil
}

// parseFaultGen resolves the -faults/-faultseed flags into a fault-plan
// generator config. An empty spec disables injection (nil config); "all"
// or a comma-separated class list selects which pathologies to inject.
func parseFaultGen(spec string, seed uint64) (*dcp.FaultGenConfig, error) {
	if spec == "" {
		return nil, nil
	}
	classes, err := dcp.ParseFaultClasses(spec)
	if err != nil {
		return nil, err
	}
	g := dcp.DefaultFaultGenConfig(seed)
	g.Classes = classes
	return &g, nil
}
