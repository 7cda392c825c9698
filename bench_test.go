// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), plus the ablations called out in DESIGN.md. Each figure benchmark
// runs the figure's spec (internal/exp/figures.go) at a scaled-down but
// shape-preserving configuration (fewer rounds / flow counts than the
// paper's 1000-round sweeps; cmd/report and the facade's NewFigureN
// constructors run any scale) and reports the headline metrics via
// b.ReportMetric; the spec's Render output is printed once per benchmark
// run.
//
// Run with:
//
//	go test -bench=. -benchmem
//	go test -run '^$' -bench=BenchmarkFig14 -benchtime=1x   # one figure
package dctcpplus_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	dcp "dctcpplus"
)

// benchRounds keeps the per-point cost manageable while leaving enough
// measured rounds after warmup for stable statistics.
const (
	benchRounds = 24
	benchWarmup = 6
)

// benchScale is the run length the figure specs use under the benchmarks.
var benchScale = dcp.Scale{Rounds: benchRounds, Warmup: benchWarmup, Seed: 1}

func fastOpts(p dcp.Protocol, n int) dcp.IncastOptions {
	o := dcp.DefaultIncastOptions(p, n)
	o.Rounds = benchRounds
	o.WarmupRounds = benchWarmup
	return o
}

// printOnce guards the row dumps so repeated b.N iterations do not spam.
var printOnce sync.Map

func dumpOnce(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// runFigure runs a figure spec and prints its rendered rows once.
func runFigure(key, title string, f interface {
	Run()
	Render(w io.Writer)
}) {
	f.Run()
	dumpOnce(key, func() {
		fmt.Printf("\n=== %s ===\n", title)
		f.Render(os.Stdout)
	})
}

// BenchmarkFig1_IncastDCTCPvsTCP regenerates Figure 1: goodput of DCTCP and
// TCP as the number of concurrent flows grows. Expected shape: TCP
// collapses past ~10 flows, DCTCP past ~35-40.
func BenchmarkFig1_IncastDCTCPvsTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure1(benchScale)
		f.FlowCounts = []int{1, 5, 10, 20, 40, 60, 80}
		runFigure("fig1", "Figure 1: goodput vs concurrent flows (DCTCP, TCP)", f)
		// Headline: DCTCP goodput at N=40 (last point before its collapse)
		// and at N=60 (after).
		for _, r := range f.Results {
			if r.Protocol == dcp.ProtoDCTCP && r.Flows == 40 {
				b.ReportMetric(r.GoodputMbps.Mean, "dctcp40_mbps")
			}
			if r.Protocol == dcp.ProtoDCTCP && r.Flows == 60 {
				b.ReportMetric(r.GoodputMbps.Mean, "dctcp60_mbps")
			}
		}
	}
}

// BenchmarkFig2_CwndDistribution regenerates Figure 2: the frequency
// distribution of cwnd sizes for DCTCP and TCP at N in {10, 20, 40, 60}.
// Expected shape: at N=10 windows spread over 3-8 MSS; at N>=20 DCTCP's
// mass piles onto 2 MSS (the floor) with a growing cwnd=1 (timeout) share.
func BenchmarkFig2_CwndDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure2Table1(benchScale)
		runFigure("fig2", "Figure 2 + Table I: cwnd distribution and timeout taxonomy", f)
		for _, r := range f.Results {
			if r.Protocol == dcp.ProtoDCTCP && r.Flows == 40 {
				b.ReportMetric(r.CwndHist.FracRange(1, 2), "dctcp40_frac_w1to2")
			}
		}
	}
}

// BenchmarkTable1_TimeoutTaxonomy regenerates Table I: per-round
// probabilities of the (cwnd at floor, ECE=1) condition and of timeouts,
// plus the FLoss-TO / LAck-TO split, for N in {20, 40, 60}. Expected
// shape: the floor/ECE coincidence is common at N=20-40; timeouts grow
// with N; FLoss-TO's share grows with synchronization.
func BenchmarkTable1_TimeoutTaxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure2Table1(benchScale)
		f.FlowCounts = []int{20, 40, 60}
		runFigure("table1", "Table I: floor/ECE coincidence and timeout taxonomy", f)
		for _, r := range f.Results {
			if r.Protocol == dcp.ProtoDCTCP && r.Flows == 40 {
				b.ReportMetric(100*r.TimeoutRoundFrac, "dctcp40_timeout_pct")
			}
		}
	}
}

// BenchmarkFig6_PartialDCTCPPlus regenerates Figure 6: DCTCP+ with only the
// sending-interval regulation (no randomization). Expected shape: it holds
// up past DCTCP's collapse point but degrades again at high N, where the
// still-synchronized bursts defeat pure rate reduction.
func BenchmarkFig6_PartialDCTCPPlus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure6(benchScale)
		f.Protocols = []dcp.Protocol{dcp.ProtoDCTCPPlusPartial}
		f.FlowCounts = []int{20, 40, 60, 80, 120, 160}
		runFigure("fig6", "Figure 6: partially implemented DCTCP+ (no desynchronization)", f)
		b.ReportMetric(f.Results[len(f.Results)-1].GoodputMbps.Mean, "partial_atN160_mbps")
	}
}

// BenchmarkFig7_FullDCTCPPlus regenerates Figure 7: the headline result.
// Expected shape: DCTCP+ sustains high goodput and low FCT to 200 flows
// while DCTCP and TCP sit in RTO-dominated collapse.
func BenchmarkFig7_FullDCTCPPlus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure7(benchScale)
		runFigure("fig7", "Figure 7: full DCTCP+ vs DCTCP vs TCP", f)
		for _, r := range f.Results {
			if r.Protocol == dcp.ProtoDCTCPPlus && r.Flows == 200 {
				b.ReportMetric(r.GoodputMbps.Mean, "plus200_mbps")
				b.ReportMetric(r.FCTms.Mean, "plus200_fct_ms")
			}
		}
	}
}

// BenchmarkFig8_RTO10ms regenerates Figure 8: DCTCP and TCP with RTOmin
// lowered to 10ms versus DCTCP+ keeping the 200ms default. Expected shape:
// the short RTO lifts DCTCP/TCP off the floor but DCTCP+ still wins without
// touching the timer.
func BenchmarkFig8_RTO10ms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure8(benchScale)
		runFigure("fig8", "Figure 8: DCTCP+ (RTOmin 200ms) vs DCTCP/TCP at RTOmin 10ms", f)
		for _, r := range f.Results {
			if r.Protocol == dcp.ProtoDCTCP && r.Flows == 200 {
				b.ReportMetric(r.GoodputMbps.Mean, "dctcp10ms200_mbps")
			}
		}
	}
}

// BenchmarkFig9_QueueCDF regenerates Figure 9: the CDF of the bottleneck
// queue length sampled every 100us, N in {30, 50, 80}. Expected shape:
// DCTCP+ keeps a shorter, more stable queue than DCTCP and TCP, with the
// gap widening as N grows.
func BenchmarkFig9_QueueCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure9(benchScale)
		runFigure("fig9", "Figure 9: bottleneck queue-length CDF (bytes)", f)
		for _, r := range f.Results {
			if r.Protocol == dcp.ProtoDCTCPPlus && r.Flows == 80 {
				b.ReportMetric(r.QueueCDF().Quantile(0.5), "plus80_q50_bytes")
			}
		}
	}
}

// BenchmarkFig11_12_BackgroundIncast regenerates Figures 11 and 12: incast
// goodput and FCT with two persistent background flows sharing the
// bottleneck. Expected shape: DCTCP+ keeps nearly its no-background
// goodput and far shorter FCT than DCTCP/TCP; the long flows still get a
// fair share.
func BenchmarkFig11_12_BackgroundIncast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The RTO-collapsed baselines make these the slowest points in the
		// suite; the bench keeps a reduced sweep (cmd/report runs the full
		// figure).
		f := dcp.NewFigure11_12(dcp.Scale{Rounds: 16, Warmup: 4, Seed: 1})
		f.FlowCounts = []int{20, 80}
		runFigure("fig11", "Figures 11+12: incast with background long flows", f)
		for _, r := range f.Results {
			if r.Protocol == dcp.ProtoDCTCPPlus && r.Flows == 80 {
				b.ReportMetric(r.GoodputMbps.Mean, "plus80bg_mbps")
				b.ReportMetric(r.LongFlowMbps.Mean, "longflow_mbps")
			}
		}
	}
}

// BenchmarkFig13_BenchmarkTraffic regenerates Figure 13: query and
// background FCT statistics under the production-cluster traffic mix, both
// protocols at RTOmin=10ms. Expected shape: DCTCP+ wins on mean and
// especially 99th-percentile query FCT; background traffic is barely
// affected.
func BenchmarkFig13_BenchmarkTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure13(benchScale)
		f.Queries, f.Background = 300, 300
		runFigure("fig13", "Figure 13: benchmark traffic FCT (queries / background)", f)
		b.ReportMetric(f.Results[0].QueryFCTms.P99, "plus_q99_ms")
		b.ReportMetric(f.Results[1].QueryFCTms.P99, "dctcp_q99_ms")
	}
}

// BenchmarkFig14_ConvergenceTrace regenerates Figure 14: the bottleneck
// queue sampled every 100us while 50 DCTCP+ flows each transfer 4MB.
// Expected shape: the buffer overflows during the first rounds, then the
// regulation converges and the queue stays clear of the 128KB limit.
func BenchmarkFig14_ConvergenceTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure14(benchScale)
		f.Rounds = 6
		runFigure("fig14", "Figure 14: per-round FCT, goodput and peak queue, N=50 x 4MB", f)
		b.ReportMetric(float64(f.Result.BottleneckDrops), "drops")
	}
}

// BenchmarkAblation_BackoffUnit sweeps backoff_time_unit at N=120 (§V-D:
// too small cannot relieve severe fan-in congestion, too large wastes
// bandwidth at moderate N).
func BenchmarkAblation_BackoffUnit(b *testing.B) {
	units := []dcp.Duration{100 * dcp.Microsecond, 400 * dcp.Microsecond,
		800 * dcp.Microsecond, 3200 * dcp.Microsecond}
	for i := 0; i < b.N; i++ {
		var results []dcp.IncastResult
		for _, u := range units {
			cfg := dcp.DefaultEnhancementConfig()
			cfg.BackoffUnit = u
			o := fastOpts(dcp.ProtoDCTCPPlus, 120)
			o.Factory = dcp.DCTCPPlusFactory(o.RTOMin, o.Testbed.Seed, cfg)
			results = append(results, dcp.RunIncast(o))
		}
		dumpOnce("abl-unit", func() {
			fmt.Println("\n=== Ablation: backoff_time_unit at N=120 ===")
			for j, r := range results {
				fmt.Printf("unit=%-8v goodput=%6.0f Mbps fct=%8.2fms timeouts=%d\n",
					units[j], r.GoodputMbps.Mean, r.FCTms.Mean, r.Timeouts)
			}
		})
		b.ReportMetric(results[2].GoodputMbps.Mean, "unit800us_mbps")
	}
}

// BenchmarkAblation_Divisor sweeps divisor_factor at N=120 (§V-D: too big
// recovers prematurely, too conservative retards regulation).
func BenchmarkAblation_Divisor(b *testing.B) {
	divisors := []float64{1.5, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		var results []dcp.IncastResult
		for _, d := range divisors {
			cfg := dcp.DefaultEnhancementConfig()
			cfg.DivisorFactor = d
			o := fastOpts(dcp.ProtoDCTCPPlus, 120)
			o.Factory = dcp.DCTCPPlusFactory(o.RTOMin, o.Testbed.Seed, cfg)
			results = append(results, dcp.RunIncast(o))
		}
		dumpOnce("abl-div", func() {
			fmt.Println("\n=== Ablation: divisor_factor at N=120 ===")
			for j, r := range results {
				fmt.Printf("divisor=%-4v goodput=%6.0f Mbps fct=%8.2fms timeouts=%d\n",
					divisors[j], r.GoodputMbps.Mean, r.FCTms.Mean, r.Timeouts)
			}
		})
		b.ReportMetric(results[1].GoodputMbps.Mean, "div2_mbps")
	}
}

// BenchmarkAblation_Desync isolates the desynchronization mechanism at a
// fixed N: randomized vs deterministic backoff (§VI-B's two-stage
// validation).
func BenchmarkAblation_Desync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := dcp.RunIncast(fastOpts(dcp.ProtoDCTCPPlus, 160))
		partial := dcp.RunIncast(fastOpts(dcp.ProtoDCTCPPlusPartial, 160))
		dumpOnce("abl-desync", func() {
			fmt.Println("\n=== Ablation: desynchronization at N=160 ===")
			dcp.PrintIncastRows(os.Stdout, []dcp.IncastResult{full, partial})
		})
		b.ReportMetric(full.GoodputMbps.Mean, "randomized_mbps")
		b.ReportMetric(partial.GoodputMbps.Mean, "deterministic_mbps")
	}
}

// BenchmarkAblation_MinCwnd checks the paper's footnote 3: lowering plain
// DCTCP's window floor to 1 MSS does not rescue it under high fan-in.
func BenchmarkAblation_MinCwnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		std := dcp.RunIncast(fastOpts(dcp.ProtoDCTCP, 80))
		min1 := dcp.RunIncast(fastOpts(dcp.ProtoDCTCPMin1, 80))
		dumpOnce("abl-min", func() {
			fmt.Println("\n=== Ablation: DCTCP min cwnd 2 vs 1 MSS at N=80 (footnote 3) ===")
			dcp.PrintIncastRows(os.Stdout, []dcp.IncastResult{std, min1})
		})
		b.ReportMetric(std.GoodputMbps.Mean, "min2_mbps")
		b.ReportMetric(min1.GoodputMbps.Mean, "min1_mbps")
	}
}

// BenchmarkTelemetryOverhead measures the cost of the metrics layer on the
// simulator's hottest path: a full DCTCP+ incast point with (a) no registry
// attached — every instrument pointer nil, each hook a no-op method on a nil
// receiver — and (b) a live registry collecting all layers. The "off" case
// must stay within ~2% of an untouched build (the hooks compile to a nil
// check); compare off vs on to see the enabled cost. Run with -benchmem: the
// per-op allocation delta of "on" over "off" is the registry's lookup cost
// at attach time — the per-packet Add/Observe path allocates nothing (see
// TestHotPathAllocFree in internal/telemetry).
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, reg *dcp.Registry) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := fastOpts(dcp.ProtoDCTCPPlus, 40)
			o.Telemetry = reg
			r := dcp.RunIncast(o)
			b.ReportMetric(r.GoodputMbps.Mean, "goodput_mbps")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, dcp.NewRegistry()) })
}

// BenchmarkExtension_RenoPlus runs the §VII extension: the enhancement
// mechanism layered on Reno-ECN.
func BenchmarkExtension_RenoPlus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renoPlus := dcp.RunIncast(fastOpts(dcp.ProtoRenoPlus, 80))
		reno := dcp.RunIncast(fastOpts(dcp.ProtoTCP, 80))
		dumpOnce("ext-reno", func() {
			fmt.Println("\n=== Extension (§VII): Reno-ECN + enhancement mechanism at N=80 ===")
			dcp.PrintIncastRows(os.Stdout, []dcp.IncastResult{renoPlus, reno})
		})
		b.ReportMetric(renoPlus.GoodputMbps.Mean, "renoplus_mbps")
		b.ReportMetric(reno.GoodputMbps.Mean, "reno_mbps")
	}
}

// BenchmarkSweepWorkerScaling runs the same 12-point grid through the
// sweep orchestrator with 1 and 4 workers. Jobs are independent
// CPU-bound simulations, so ns/op should shrink near-linearly from
// jobs=1 to jobs=4 on a machine with >=4 cores (compare the
// sub-benchmark times; jobs_per_sec makes the throughput explicit; on
// fewer cores the curve flattens at GOMAXPROCS). No cache is attached —
// every iteration must execute every job, or the pool would have
// nothing to parallelize.
func BenchmarkSweepWorkerScaling(b *testing.B) {
	spec := dcp.SweepSpec{
		Name:         "bench-scaling",
		Protocols:    []string{"dctcp+", "dctcp"},
		Flows:        []int{40, 80},
		RTOMins:      []dcp.Duration{10 * dcp.Millisecond},
		Seeds:        []uint64{1, 2, 3},
		Rounds:       benchRounds,
		WarmupRounds: benchWarmup,
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", workers), func(b *testing.B) {
			runner := dcp.SweepRunner{Workers: workers}
			for i := 0; i < b.N; i++ {
				out, err := runner.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out.Jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_sec")
			}
		})
	}
}
