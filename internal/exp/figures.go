package exp

import (
	"fmt"
	"io"

	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// This file packages each of the paper's evaluation artifacts as a typed,
// self-describing experiment: construct the default spec at a Scale (then
// adjust its fields if needed), Run it, and Render the same rows/series the
// paper reports. The specs are the only code that runs each figure:
// cmd/report chains them, the root benchmarks run them at bench scale, and
// tests pin their shapes.

// Scale applies common run-length settings to every figure spec.
type Scale struct {
	Rounds int
	Warmup int
	Seed   uint64

	// Telemetry, when non-nil, is threaded into every run of the figure;
	// atomic instruments make one registry safe across parallel points.
	Telemetry *telemetry.Registry
}

// DefaultScale balances statistical stability against runtime; the paper's
// own 1000-round scale is Scale{1000, 10, 1}.
func DefaultScale() Scale { return Scale{Rounds: 50, Warmup: 10, Seed: 1} }

func (sc Scale) apply(o *IncastOptions) {
	o.Rounds = sc.Rounds
	o.WarmupRounds = sc.Warmup
	o.Testbed.Seed = sc.Seed
	o.Telemetry = sc.Telemetry
}

// Figure2Table1 is the cwnd-distribution and timeout-taxonomy analysis.
type Figure2Table1 struct {
	Scale      Scale
	Protocols  []Protocol
	FlowCounts []int

	Results []IncastResult
}

// NewFigure2Table1 returns the paper's Figure 2 / Table I specification.
func NewFigure2Table1(sc Scale) *Figure2Table1 {
	return &Figure2Table1{
		Scale:      sc,
		Protocols:  []Protocol{ProtoDCTCP, ProtoTCP},
		FlowCounts: []int{10, 20, 40, 60},
	}
}

// Run executes every (protocol, N) point with cwnd probes attached.
func (f *Figure2Table1) Run() {
	var optList []IncastOptions
	for _, p := range f.Protocols {
		for _, n := range f.FlowCounts {
			o := DefaultIncastOptions(p, n)
			f.Scale.apply(&o)
			o.CollectCwnd = true
			optList = append(optList, o)
		}
	}
	f.Results = RunMany(optList)
}

// Render writes both the Figure 2 histogram rows and the Table I
// percentages.
func (f *Figure2Table1) Render(w io.Writer) {
	fmt.Fprintf(w, "%-12s %4s |", "protocol", "N")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(w, " w=%-4d", i)
	}
	fmt.Fprintf(w, " %s\n", "w>8")
	for _, r := range f.Results {
		h := r.CwndHist
		var gt float64
		for _, b := range h.Bins() {
			if b > 8 {
				gt += h.Frac(b)
			}
		}
		fmt.Fprintf(w, "%-12s %4d |", r.Protocol, r.Flows)
		for i := 1; i <= 8; i++ {
			fmt.Fprintf(w, " %5.3f", h.Frac(i))
		}
		fmt.Fprintf(w, " %5.3f\n", gt)
	}
	fmt.Fprintf(w, "\n%-12s %4s %14s %10s %10s %10s\n",
		"protocol", "N", "cwndMin&ECE", "timeout", "FLoss-TO", "LAck-TO")
	for _, r := range f.Results {
		tot := r.FLossTO + r.LAckTO
		fl, la := 0.0, 0.0
		if tot > 0 {
			fl = 100 * float64(r.FLossTO) / float64(tot)
			la = 100 * float64(r.LAckTO) / float64(tot)
		}
		fmt.Fprintf(w, "%-12s %4d %13.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
			r.Protocol, r.Flows, 100*r.MinCwndECEFrac, 100*r.TimeoutRoundFrac, fl, la)
	}
}

// Figure7 is the headline comparison (also covers Figure 1 via TCP/DCTCP
// at small N, Figure 6 via the partial protocol and Figure 8 via
// BaselineRTOMin).
type Figure7 struct {
	Scale      Scale
	Protocols  []Protocol
	FlowCounts []int
	// BaselineRTOMin, when nonzero, applies to every protocol except
	// DCTCP+ variants — the Figure 8 configuration.
	BaselineRTOMin sim.Duration

	Results []IncastResult
}

// NewFigure7 returns the paper's Figure 7 specification.
func NewFigure7(sc Scale) *Figure7 {
	return &Figure7{
		Scale:      sc,
		Protocols:  []Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP},
		FlowCounts: []int{20, 60, 120, 200},
	}
}

// NewFigure1 returns Figure 1, the basic incast goodput comparison (DCTCP
// vs TCP).
func NewFigure1(sc Scale) *Figure7 {
	f := NewFigure7(sc)
	f.Protocols = []Protocol{ProtoTCP, ProtoDCTCP}
	f.FlowCounts = []int{1, 5, 10, 20, 30, 40, 60, 80, 100}
	return f
}

// NewFigure6 returns the partial-implementation ablation of Figure 6.
func NewFigure6(sc Scale) *Figure7 {
	f := NewFigure7(sc)
	f.Protocols = []Protocol{ProtoDCTCPPlusPartial, ProtoDCTCPPlus}
	return f
}

// NewFigure8 returns Figure 8: baselines at RTOmin = 10ms.
func NewFigure8(sc Scale) *Figure7 {
	f := NewFigure7(sc)
	f.BaselineRTOMin = 10 * sim.Millisecond
	return f
}

// Run executes every (protocol, N) point, points in parallel.
func (f *Figure7) Run() {
	var optList []IncastOptions
	for _, p := range f.Protocols {
		for _, n := range f.FlowCounts {
			o := DefaultIncastOptions(p, n)
			f.Scale.apply(&o)
			if f.BaselineRTOMin > 0 && p != ProtoDCTCPPlus && p != ProtoDCTCPPlusPartial {
				o.RTOMin = f.BaselineRTOMin
			}
			optList = append(optList, o)
		}
	}
	f.Results = RunMany(optList)
}

// Render writes the figure's rows.
func (f *Figure7) Render(w io.Writer) { PrintIncastRows(w, f.Results) }

// Figure9 is the bottleneck queue-length CDF comparison.
type Figure9 struct {
	Scale       Scale
	Protocols   []Protocol
	FlowCounts  []int
	SampleEvery sim.Duration

	Results []IncastResult
}

// NewFigure9 returns the paper's Figure 9 specification.
func NewFigure9(sc Scale) *Figure9 {
	return &Figure9{
		Scale:       sc,
		Protocols:   []Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP},
		FlowCounts:  []int{30, 50, 80},
		SampleEvery: 100 * sim.Microsecond,
	}
}

// Run executes every point with the queue sampler attached.
func (f *Figure9) Run() {
	var optList []IncastOptions
	for _, n := range f.FlowCounts {
		for _, p := range f.Protocols {
			o := DefaultIncastOptions(p, n)
			f.Scale.apply(&o)
			o.QueueSampleEvery = f.SampleEvery
			optList = append(optList, o)
		}
	}
	f.Results = RunMany(optList)
}

// Render writes queue-CDF quantile rows.
func (f *Figure9) Render(w io.Writer) {
	fmt.Fprintf(w, "%-14s %4s | %9s %9s %9s %9s %9s\n",
		"protocol", "N", "p25", "p50", "p90", "p99", "max")
	for _, r := range f.Results {
		cdf := r.QueueCDF()
		fmt.Fprintf(w, "%-14s %4d | %9.0f %9.0f %9.0f %9.0f %9.0f\n",
			r.Protocol, r.Flows, cdf.Quantile(0.25), cdf.Quantile(0.5),
			cdf.Quantile(0.9), cdf.Quantile(0.99), cdf.Quantile(1))
	}
}

// Figure11_12 is the incast-with-background-flows experiment.
type Figure11_12 struct {
	Scale           Scale
	Protocols       []Protocol
	FlowCounts      []int
	BackgroundFlows int
	ChunkBytes      int64

	Results []BackgroundIncastResult
}

// NewFigure11_12 returns the paper's §VI-C specification.
func NewFigure11_12(sc Scale) *Figure11_12 {
	return &Figure11_12{
		Scale:           sc,
		Protocols:       []Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP},
		FlowCounts:      []int{20, 60, 120},
		BackgroundFlows: 2,
		ChunkBytes:      1 << 20,
	}
}

// Run executes every (protocol, N) point, points in parallel.
func (f *Figure11_12) Run() {
	var optList []BackgroundIncastOptions
	for _, p := range f.Protocols {
		for _, n := range f.FlowCounts {
			o := DefaultBackgroundIncastOptions(p, n)
			f.Scale.apply(&o.Incast)
			o.BackgroundFlows = f.BackgroundFlows
			o.ChunkBytes = f.ChunkBytes
			optList = append(optList, o)
		}
	}
	f.Results = fanOut(optList, RunBackgroundIncast)
}

// Render writes the figure's rows.
func (f *Figure11_12) Render(w io.Writer) { PrintBackgroundIncastRows(w, f.Results) }

// Figure13 is the production benchmark-traffic experiment.
type Figure13 struct {
	Protocols  []Protocol
	Queries    int
	Background int
	RTOMin     sim.Duration
	Seed       uint64

	Results []BenchmarkResult
}

// NewFigure13 returns the paper's §VI-D specification at reduced scale
// (the paper runs 7,000 + 7,000; set Queries and Background to match).
// Only the scale's seed applies: the benchmark has no rounds.
func NewFigure13(sc Scale) *Figure13 {
	return &Figure13{
		Protocols:  []Protocol{ProtoDCTCPPlus, ProtoDCTCP},
		Queries:    1000,
		Background: 1000,
		RTOMin:     10 * sim.Millisecond,
		Seed:       sc.Seed,
	}
}

// Run executes the benchmark for each protocol. Short messages scale with
// the query count so every class spans comparable virtual time.
func (f *Figure13) Run() {
	f.Results = f.Results[:0]
	for _, p := range f.Protocols {
		o := DefaultBenchmarkOptions(p)
		o.RTOMin = f.RTOMin
		o.Testbed.Seed = f.Seed
		o.Traffic.Queries = f.Queries
		o.Traffic.ShortFlows = f.Queries / 4
		o.Traffic.BackgroundFlows = f.Background
		f.Results = append(f.Results, RunBenchmark(o))
	}
}

// Render writes the figure's rows.
func (f *Figure13) Render(w io.Writer) { PrintBenchmarkRows(w, f.Results) }

// Figure14 is the convergence trace: 50 DCTCP+ flows at 4MB each.
type Figure14 struct {
	Scale        Scale
	Flows        int
	BytesPerFlow int64
	Rounds       int

	Result IncastResult
}

// NewFigure14 returns the paper's Figure 14 specification. The trace
// keeps its own round count; the scale contributes seed and telemetry.
func NewFigure14(sc Scale) *Figure14 {
	return &Figure14{
		Scale:        sc,
		Flows:        50,
		BytesPerFlow: 4 << 20,
		Rounds:       8,
	}
}

// Run executes the trace.
func (f *Figure14) Run() {
	o := DefaultIncastOptions(ProtoDCTCPPlus, f.Flows)
	o.BytesPerFlow = f.BytesPerFlow
	o.Rounds = f.Rounds
	o.WarmupRounds = 1
	o.Testbed.Seed = f.Scale.Seed
	o.Telemetry = f.Scale.Telemetry
	o.KeepRounds = true
	o.QueueSampleEvery = 100 * sim.Microsecond
	f.Result = RunIncast(o)
}

// Render writes the per-round series and the convergence verdict. Each
// round's row carries the peak sampled bottleneck occupancy between its
// start and the next round's: the queue-over-time view of the figure.
func (f *Figure14) Render(w io.Writer) {
	series, samples := f.Result.Series, f.Result.QueueSamples
	j := 0
	for i, p := range series {
		maxQueue := 0
		for ; j < len(samples); j++ {
			s := samples[j]
			if i+1 < len(series) && s.At >= series[i+1].Start {
				break
			}
			if s.At >= p.Start {
				maxQueue = max(maxQueue, s.Bytes)
			}
		}
		fmt.Fprintf(w, "round %d: fct=%8.1fms goodput=%5.0f Mbps flowTimeouts=%d maxQueue=%6d B\n",
			i, p.FCTms, p.GoodputMbps, p.FlowTimeouts, maxQueue)
	}
	fmt.Fprintf(w, "converged at round %d; bottleneck drops %d\n",
		f.Result.ConvergedAtRound(), f.Result.BottleneckDrops)
}
