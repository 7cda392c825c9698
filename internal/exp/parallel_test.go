package exp

import (
	"reflect"
	"testing"
)

// TestParallelSweepMatchesSequential pins the fan-out contract: RunMany
// rides the shared pool (internal/sweep/pool), and its results must equal a
// plain loop over RunIncast, position for position.
func TestParallelSweepMatchesSequential(t *testing.T) {
	var optList []IncastOptions
	for _, n := range []int{4, 8, 12} {
		optList = append(optList, fastIncastOpts(ProtoDCTCPPlus, n))
	}
	var seq []IncastResult
	for _, o := range optList {
		seq = append(seq, RunIncast(o))
	}
	if par := RunMany(optList); !reflect.DeepEqual(par, seq) {
		t.Error("RunMany differs from the sequential RunIncast loop")
	}
}

// TestParallelismOneMatchesDefault pins the consolidation contract: the
// exp-level fan-out rides the shared pool, and results must be independent
// of its width.
func TestParallelismOneMatchesDefault(t *testing.T) {
	optList := []IncastOptions{
		fastIncastOpts(ProtoDCTCP, 4),
		fastIncastOpts(ProtoDCTCP, 8),
	}
	wide := RunMany(optList)
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()
	if narrow := RunMany(optList); !reflect.DeepEqual(narrow, wide) {
		t.Error("RunMany results differ across pool widths")
	}
}

func TestRunMany(t *testing.T) {
	optList := []IncastOptions{
		fastIncastOpts(ProtoDCTCP, 4),
		fastIncastOpts(ProtoDCTCPPlus, 6),
	}
	out := RunMany(optList)
	if len(out) != 2 {
		t.Fatal("length")
	}
	if out[0].Protocol != ProtoDCTCP || out[0].Flows != 4 {
		t.Error("point 0 identity wrong")
	}
	if out[1].Protocol != ProtoDCTCPPlus || out[1].Flows != 6 {
		t.Error("point 1 identity wrong")
	}
}

func TestParallelBackgroundSweep(t *testing.T) {
	var optList []BackgroundIncastOptions
	for _, n := range []int{4, 6} {
		o := DefaultBackgroundIncastOptions(ProtoDCTCPPlus, n)
		o.Incast.Rounds = 5
		o.Incast.WarmupRounds = 1
		o.ChunkBytes = 1 << 20
		optList = append(optList, o)
	}
	rs := fanOut(optList, RunBackgroundIncast)
	if len(rs) != 2 || rs[0].Flows != 4 || rs[1].Flows != 6 {
		t.Fatal("shape wrong")
	}
}
