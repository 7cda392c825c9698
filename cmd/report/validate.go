package main

import "fmt"

// validateFlags rejects scale settings the battery cannot run: every figure
// needs at least one measured round after warmup.
func validateFlags(rounds, warmup int) error {
	switch {
	case rounds <= 0:
		return fmt.Errorf("-rounds %d: need at least one round", rounds)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: cannot be negative", warmup)
	case warmup >= rounds:
		return fmt.Errorf("-warmup %d >= -rounds %d: no measured rounds remain", warmup, rounds)
	}
	return nil
}
