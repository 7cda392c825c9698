// Package callpurity reaches nondeterminism sources from a hot root. The
// package does not import the simulator, yet nondeterminism flags each
// site, the goroutine with the hot root as provenance.
package callpurity

import (
	"math/rand"
	"time"
)

// Tick is the per-event root.
//
//hot:path
func Tick(seen map[int]int) int64 {
	jittered := backoff()
	spill(seen)
	return jittered
}

// backoff reads the wall clock and the global RNG one static hop from the
// root.
func backoff() int64 {
	base := time.Now().UnixNano()
	return base + rand.Int63n(1000)
}

// spill iterates a map into a slice (order-sensitive) and spawns a
// goroutine, both under hot taint.
func spill(seen map[int]int) {
	var order []int
	for k := range seen {
		order = append(order, k)
	}
	go func() { _ = order }()
}
