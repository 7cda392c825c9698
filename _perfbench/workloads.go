package main

import (
	"fmt"

	"dctcpplus"
	"dctcpplus/internal/stats"
)

// kind names the facade entry point a workload's points run through.
type kind int

const (
	kindSweep      kind = iota // SweepRunner.RunPoints, one call per pass
	kindIncast                 // RunIncast, one call per point
	kindBackground             // RunBackgroundIncast, one call per point
	kindBenchmark              // RunBenchmark, one call per point
)

// point is one simulation of a workload. Exactly the field matching the
// workload's kind is set.
type point struct {
	label  string
	sweep  dctcpplus.SweepPoint
	incast dctcpplus.IncastOptions
	bg     dctcpplus.BackgroundIncastOptions
	bench  dctcpplus.BenchmarkOptions
}

// scenario is one benchmark workload: a fixed list of points run through
// one facade entry point.
type scenario struct {
	name   string
	kind   kind
	points []point
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"largeN", "bg_longflows", "prodmix", "oracle_faults"}

// lookup builds the named workload. simSeed shifts every simulation seed
// (1 reproduces the documented numbers); tiny shrinks every point to a
// few milliseconds of host time for the benchmark's own tests.
func lookup(name string, simSeed uint64, tiny bool) (*scenario, error) {
	switch name {
	case "largeN":
		return largeN(simSeed, tiny)
	case "bg_longflows":
		return bgLongflows(simSeed, tiny), nil
	case "prodmix":
		return prodmix(simSeed, tiny), nil
	case "oracle_faults":
		return oracleFaults(simSeed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// largeN is the paper's regime: LargeNSpec restricted to N in {1000, 2000},
// run through the sweep runner with one worker and no cache.
func largeN(simSeed uint64, tiny bool) (*scenario, error) {
	spec := dctcpplus.LargeNSweepSpec()
	spec.Flows = []int{1000, 2000}
	spec.Seeds = []uint64{simSeed, simSeed + 1}
	if tiny {
		spec.Flows = []int{20, 40}
		spec.Rounds, spec.WarmupRounds = 3, 1
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, fmt.Errorf("largeN: %w", err)
	}
	w := &scenario{name: "largeN", kind: kindSweep}
	for _, j := range jobs {
		pt := j.Point
		w.points = append(w.points, point{
			label: fmt.Sprintf("%s/N=%d/seed=%d", pt.Proto, pt.Flows, pt.Seed),
			sweep: pt,
		})
	}
	return w, nil
}

// tcpLockoutBudget bounds the simulated time of the bg_longflows TCP point.
// The same 40 TCP N=20 rounds without the long flows take 6.75 s of
// simulated time, 64 RTOs included, so the budget leaves three times that;
// under the drop-tail lock-out (ROADMAP item 1) the point completes 3 of
// its 36 measured rounds in it.
const tcpLockoutBudget = 20 * dctcpplus.Second

// bgLongflows is Figs. 11/12: incast next to two long flows, plus one TCP
// point that the drop-tail lock-out truncates.
func bgLongflows(simSeed uint64, tiny bool) *scenario {
	w := &scenario{name: "bg_longflows", kind: kindBackground}
	rounds, warmup, flows := 40, 4, []int{20, 80}
	if tiny {
		rounds, warmup, flows = 6, 1, []int{5, 10}
	}
	mk := func(p dctcpplus.Protocol, n int) dctcpplus.BackgroundIncastOptions {
		o := dctcpplus.DefaultBackgroundIncastOptions(p, n)
		o.ChunkBytes = 1 << 20
		o.Incast.Rounds, o.Incast.WarmupRounds = rounds, warmup
		o.Incast.Testbed.Seed = simSeed
		return o
	}
	for _, p := range []dctcpplus.Protocol{dctcpplus.ProtoDCTCPPlus, dctcpplus.ProtoDCTCP} {
		for _, n := range flows {
			w.points = append(w.points, point{label: fmt.Sprintf("%v/N=%d", p, n), bg: mk(p, n)})
		}
	}
	o := mk(dctcpplus.ProtoTCP, flows[0])
	o.Incast.MaxSimTime = tcpLockoutBudget
	w.points = append(w.points, point{label: fmt.Sprintf("tcp/N=%d/budget=%v", flows[0], tcpLockoutBudget), bg: o})
	return w
}

// prodmix is Fig. 13's production traffic at four times the default mix.
func prodmix(simSeed uint64, tiny bool) *scenario {
	w := &scenario{name: "prodmix", kind: kindBenchmark}
	for _, p := range []dctcpplus.Protocol{dctcpplus.ProtoDCTCPPlus, dctcpplus.ProtoDCTCP} {
		o := dctcpplus.DefaultBenchmarkOptions(p)
		o.RTOMin = 10 * dctcpplus.Millisecond
		o.Traffic.Queries, o.Traffic.ShortFlows, o.Traffic.BackgroundFlows = 2000, 500, 2000
		if tiny {
			o.Traffic.Queries, o.Traffic.ShortFlows, o.Traffic.BackgroundFlows = 20, 5, 20
		}
		o.Testbed.Seed = simSeed
		w.points = append(w.points, point{label: p.String(), bench: o})
	}
	return w
}

// oracleFaults is faulted incast under the conformance oracle, one point
// per protocol family the oracle models.
func oracleFaults(simSeed uint64, tiny bool) *scenario {
	w := &scenario{name: "oracle_faults", kind: kindIncast}
	flows, rounds := 48, 200
	if tiny {
		flows, rounds = 8, 12
	}
	for _, p := range []dctcpplus.Protocol{dctcpplus.ProtoTCP, dctcpplus.ProtoDCTCP,
		dctcpplus.ProtoDCTCPPlus, dctcpplus.ProtoD2TCPPlus} {
		o := dctcpplus.DefaultIncastOptions(p, flows)
		o.RTOMin = 10 * dctcpplus.Millisecond
		o.Rounds = rounds
		o.Testbed.Seed = simSeed
		gen := dctcpplus.DefaultFaultGenConfig(simSeed)
		gen.Classes = dctcpplus.AllFaultClasses()
		o.Faults = &gen
		o.Oracle = true
		w.points = append(w.points, point{label: p.String(), incast: o})
	}
	return w
}

// wantDone is the number of measured rounds or completed transfers a point
// must reach; fewer means the run hit its simulated-time budget.
func (w *scenario) wantDone(p point) int {
	switch w.kind {
	case kindSweep:
		return p.sweep.Rounds - p.sweep.WarmupRounds
	case kindIncast:
		return p.incast.Rounds - p.incast.WarmupRounds
	case kindBackground:
		return p.bg.Incast.Rounds - p.bg.Incast.WarmupRounds
	default:
		t := p.bench.Traffic
		return t.Queries + t.ShortFlows + t.BackgroundFlows
	}
}

// outcome is the part of a point's result that the facade and the rebuild
// both produce; equal outcomes mean the same program ran.
type outcome struct {
	SimTime    dctcpplus.Duration // zero for benchmark points (the facade omits it)
	Done       int                // measured rounds, or completed transfers
	Goodput    stats.Summary
	FCT        stats.Summary // round FCT, or query FCT
	Long       stats.Summary // long-flow chunk throughput, or background FCT
	Short      stats.Summary // short-message FCT
	Drops      int64
	Timeouts   int64
	Violations int64
	Faults     int64
}

// exactSummary is stats.Summary without its rounding String method.
type exactSummary struct {
	Count                              int64
	Mean, Std, Min, Max, P50, P95, P99 float64
}

// fingerprint renders every field exactly; %v prints the shortest float
// that round-trips.
func (o outcome) fingerprint() string {
	return fmt.Sprintf("sim=%d done=%d goodput=%v fct=%v long=%v short=%v drops=%d timeouts=%d violations=%d faults=%d",
		int64(o.SimTime), o.Done, exactSummary(o.Goodput), exactSummary(o.FCT), exactSummary(o.Long),
		exactSummary(o.Short), o.Drops, o.Timeouts, o.Violations, o.Faults)
}

func fromSweep(r dctcpplus.SweepResult) outcome {
	return outcome{
		SimTime:    r.SimTime,
		Done:       r.MeasuredRounds,
		Goodput:    r.GoodputMbps,
		FCT:        r.FCTms,
		Drops:      r.BottleneckDrops,
		Timeouts:   r.Timeouts,
		Violations: r.OracleViolations,
		Faults:     r.FaultsInjected,
	}
}

func fromIncast(r dctcpplus.IncastResult) outcome {
	o := outcome{
		SimTime:    r.SimTime,
		Done:       r.Rounds,
		Goodput:    r.GoodputMbps,
		FCT:        r.FCTms,
		Drops:      r.BottleneckDrops,
		Timeouts:   r.Timeouts,
		Violations: r.OracleTotal,
	}
	if r.FaultStats != nil {
		o.Faults = r.FaultStats.EventsFired
	}
	return o
}

func fromBackground(r dctcpplus.BackgroundIncastResult) outcome {
	o := fromIncast(r.IncastResult)
	o.Long = r.LongFlowMbps
	return o
}

func fromBenchmark(r dctcpplus.BenchmarkResult) outcome {
	return outcome{
		Done:     r.Queries + r.Short + r.Background,
		FCT:      r.QueryFCTms,
		Long:     r.BackgroundFCTms,
		Short:    r.ShortFCTms,
		Timeouts: r.Timeouts,
	}
}
