// Package overflow exercises the overflow analyzer: unbounded narrow
// accumulation on a hot path next to a contract-bounded accumulation that
// is exempt.
package overflow

// Tally accumulates per-packet counters.
type Tally struct {
	// hits is narrow and unbounded: flagged.
	hits int32
	// credits is bounded by its contract, so its accumulation is exempt.
	//inv: 0 <= credits && credits <= 4
	credits int32
}

// bump is the per-packet path.
//
//hot:path
func (t *Tally) bump() {
	t.hits++
	if t.credits < 4 {
		t.credits++
	}
}
