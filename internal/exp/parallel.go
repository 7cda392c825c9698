package exp

import (
	"dctcpplus/internal/sweep/pool"
)

// Parallelism controls how many experiment points RunMany and the figure
// specs run concurrently. Each point is an independent, fully deterministic
// simulation, so running them on separate goroutines changes wall-clock
// time only — never results. The fan-out itself is the shared worker pool
// in internal/sweep/pool; this variable only sets its width for the
// exp-level batches (internal/sweep's Runner has its own Workers knob).
var Parallelism = pool.DefaultWorkers()

// fanOut applies run to every point on the shared pool and returns the
// results positionally: identical to a plain loop, at any width.
func fanOut[O, R any](points []O, run func(O) R) []R {
	out := make([]R, len(points))
	pool.ForEach(Parallelism, len(points), func(i int) {
		out[i] = run(points[i])
	})
	return out
}

// RunMany executes a batch of heterogeneous incast points concurrently;
// results are positional and identical to a plain loop over RunIncast.
func RunMany(optList []IncastOptions) []IncastResult { return fanOut(optList, RunIncast) }
