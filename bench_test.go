// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), plus the ablations called out in DESIGN.md. Each benchmark runs a
// scaled-down but shape-preserving configuration (fewer rounds / flow
// counts than the paper's 1000-round sweeps — the cmd/ tools expose full
// scale) and reports the headline metrics via b.ReportMetric; the
// rows/series the paper reports are printed once per benchmark run.
//
// Run with:
//
//	go test -bench=. -benchmem
package dctcpplus_test

import (
	"context"
	"fmt"
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

// benchFigure runs a figure spec at the bench scale over flowCounts.
func benchFigure(f *dcp.Figure7, flowCounts []int) []dcp.IncastResult {
	f.Scale = dcp.Scale{Rounds: benchRounds, Warmup: benchWarmup, Seed: 1}
	f.FlowCounts = flowCounts
	f.Run()
	return f.Results
}

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

// BenchmarkFig1_IncastDCTCPvsTCP regenerates Figure 1: goodput of DCTCP and
// TCP as the number of concurrent flows grows. Expected shape: TCP
// collapses past ~10 flows, DCTCP past ~35-40.
func BenchmarkFig1_IncastDCTCPvsTCP(b *testing.B) {
	flowCounts := []int{1, 5, 10, 20, 40, 60, 80}
	for i := 0; i < b.N; i++ {
		all := benchFigure(dcp.NewFigure1(), flowCounts)
		dumpOnce("fig1", func() {
			fmt.Println("\n=== Figure 1: goodput vs concurrent flows (DCTCP, TCP) ===")
			dcp.PrintIncastRows(os.Stdout, all)
		})
		// Headline: DCTCP goodput at N=40 (last point before its collapse)
		// and at N=60 (after).
		for _, r := range all {
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
		type row struct {
			p dcp.Protocol
			n int
			r dcp.IncastResult
		}
		var rows []row
		for _, p := range []dcp.Protocol{dcp.ProtoDCTCP, dcp.ProtoTCP} {
			for _, n := range []int{10, 20, 40, 60} {
				o := fastOpts(p, n)
				o.CollectCwnd = true
				rows = append(rows, row{p, n, dcp.RunIncast(o)})
			}
		}
		dumpOnce("fig2", func() {
			fmt.Println("\n=== Figure 2: cwnd frequency distribution (fraction of ACK events) ===")
			fmt.Printf("%-8s %4s | %6s %6s %6s %6s %8s\n",
				"proto", "N", "w=1", "w=2", "w=3-8", "w>8", "events")
			for _, rw := range rows {
				h := rw.r.CwndHist
				var gt8 float64
				for _, bin := range h.Bins() {
					if bin > 8 {
						gt8 += h.Frac(bin)
					}
				}
				fmt.Printf("%-8s %4d | %6.3f %6.3f %6.3f %6.3f %8d\n",
					rw.p, rw.n, h.Frac(1), h.Frac(2), h.FracRange(3, 8), gt8, h.Total())
			}
		})
		for _, rw := range rows {
			if rw.p == dcp.ProtoDCTCP && rw.n == 40 {
				b.ReportMetric(rw.r.CwndHist.FracRange(1, 2), "dctcp40_frac_w1to2")
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
		type row struct {
			p dcp.Protocol
			n int
			r dcp.IncastResult
		}
		var rows []row
		for _, n := range []int{20, 40, 60} {
			for _, p := range []dcp.Protocol{dcp.ProtoDCTCP, dcp.ProtoTCP} {
				o := fastOpts(p, n)
				o.CollectCwnd = true
				rows = append(rows, row{p, n, dcp.RunIncast(o)})
			}
		}
		dumpOnce("table1", func() {
			fmt.Println("\n=== Table I: floor/ECE coincidence and timeout taxonomy ===")
			fmt.Printf("%-8s %4s | %12s %10s %10s %10s\n",
				"proto", "N", "cwndMin&ECE", "timeout", "FLoss-TO", "LAck-TO")
			for _, rw := range rows {
				total := rw.r.FLossTO + rw.r.LAckTO
				fl, la := 0.0, 0.0
				if total > 0 {
					fl = float64(rw.r.FLossTO) / float64(total)
					la = float64(rw.r.LAckTO) / float64(total)
				}
				fmt.Printf("%-8s %4d | %11.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
					rw.p, rw.n, 100*rw.r.MinCwndECEFrac, 100*rw.r.TimeoutRoundFrac,
					100*fl, 100*la)
			}
		})
		for _, rw := range rows {
			if rw.p == dcp.ProtoDCTCP && rw.n == 40 {
				b.ReportMetric(100*rw.r.TimeoutRoundFrac, "dctcp40_timeout_pct")
			}
		}
	}
}

// BenchmarkFig6_PartialDCTCPPlus regenerates Figure 6: DCTCP+ with only the
// sending-interval regulation (no randomization). Expected shape: it holds
// up past DCTCP's collapse point but degrades again at high N, where the
// still-synchronized bursts defeat pure rate reduction.
func BenchmarkFig6_PartialDCTCPPlus(b *testing.B) {
	flowCounts := []int{20, 40, 60, 80, 120, 160}
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure6()
		f.Protocols = []dcp.Protocol{dcp.ProtoDCTCPPlusPartial}
		partial := benchFigure(f, flowCounts)
		dumpOnce("fig6", func() {
			fmt.Println("\n=== Figure 6: partially implemented DCTCP+ (no desynchronization) ===")
			dcp.PrintIncastRows(os.Stdout, partial)
		})
		b.ReportMetric(partial[len(partial)-1].GoodputMbps.Mean, "partial_atN160_mbps")
	}
}

// BenchmarkFig7_FullDCTCPPlus regenerates Figure 7: the headline result.
// Expected shape: DCTCP+ sustains high goodput and low FCT to 200 flows
// while DCTCP and TCP sit in RTO-dominated collapse.
func BenchmarkFig7_FullDCTCPPlus(b *testing.B) {
	flowCounts := []int{20, 60, 120, 200}
	for i := 0; i < b.N; i++ {
		all := benchFigure(dcp.NewFigure7(), flowCounts)
		dumpOnce("fig7", func() {
			fmt.Println("\n=== Figure 7: full DCTCP+ vs DCTCP vs TCP ===")
			dcp.PrintIncastRows(os.Stdout, all)
		})
		for _, r := range all {
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
	flowCounts := []int{20, 60, 120, 200}
	for i := 0; i < b.N; i++ {
		all := benchFigure(dcp.NewFigure8(), flowCounts)
		dumpOnce("fig8", func() {
			fmt.Println("\n=== Figure 8: DCTCP+ (RTOmin 200ms) vs DCTCP/TCP at RTOmin 10ms ===")
			dcp.PrintIncastRows(os.Stdout, all)
		})
		for _, r := range all {
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
		type row struct {
			p dcp.Protocol
			n int
			r dcp.IncastResult
		}
		var rows []row
		for _, n := range []int{30, 50, 80} {
			for _, p := range []dcp.Protocol{dcp.ProtoDCTCPPlus, dcp.ProtoDCTCP, dcp.ProtoTCP} {
				o := fastOpts(p, n)
				o.QueueSampleEvery = 100 * dcp.Microsecond
				rows = append(rows, row{p, n, dcp.RunIncast(o)})
			}
		}
		dumpOnce("fig9", func() {
			fmt.Println("\n=== Figure 9: bottleneck queue-length CDF (bytes) ===")
			fmt.Printf("%-14s %4s | %9s %9s %9s %9s\n", "proto", "N", "p50", "p90", "p99", "max")
			for _, rw := range rows {
				cdf := rw.r.QueueCDF()
				fmt.Printf("%-14s %4d | %9.0f %9.0f %9.0f %9.0f\n",
					rw.p, rw.n, cdf.Quantile(0.5), cdf.Quantile(0.9),
					cdf.Quantile(0.99), cdf.Quantile(1))
			}
		})
		for _, rw := range rows {
			if rw.p == dcp.ProtoDCTCPPlus && rw.n == 80 {
				b.ReportMetric(rw.r.QueueCDF().Quantile(0.5), "plus80_q50_bytes")
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
	// The RTO-collapsed baselines make these the slowest points in the
	// suite; the bench keeps a reduced sweep (cmd/report runs the full
	// figure).
	flowCounts := []int{20, 80}
	for i := 0; i < b.N; i++ {
		f := dcp.NewFigure11_12()
		f.Scale = dcp.Scale{Rounds: 16, Warmup: 4, Seed: 1}
		f.FlowCounts = flowCounts
		f.Run()
		all := f.Results
		dumpOnce("fig11", func() {
			fmt.Println("\n=== Figures 11+12: incast with background long flows ===")
			dcp.PrintBackgroundIncastRows(os.Stdout, all)
		})
		for _, r := range all {
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
		var all []dcp.BenchmarkResult
		for _, p := range []dcp.Protocol{dcp.ProtoDCTCPPlus, dcp.ProtoDCTCP} {
			o := dcp.DefaultBenchmarkOptions(p)
			o.Traffic.Queries = 300
			o.Traffic.ShortFlows = 75
			o.Traffic.BackgroundFlows = 300
			all = append(all, dcp.RunBenchmark(o))
		}
		dumpOnce("fig13", func() {
			fmt.Println("\n=== Figure 13: benchmark traffic FCT (queries / background) ===")
			dcp.PrintBenchmarkRows(os.Stdout, all)
		})
		b.ReportMetric(all[0].QueryFCTms.P99, "plus_q99_ms")
		b.ReportMetric(all[1].QueryFCTms.P99, "dctcp_q99_ms")
	}
}

// BenchmarkFig14_ConvergenceTrace regenerates Figure 14: the bottleneck
// queue sampled every 100us while 50 DCTCP+ flows each transfer 4MB.
// Expected shape: the buffer overflows during the first rounds, then the
// regulation converges and the queue stays clear of the 128KB limit.
func BenchmarkFig14_ConvergenceTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 50)
		o.BytesPerFlow = 4 << 20
		o.Rounds = 6
		o.WarmupRounds = 1
		o.QueueSampleEvery = 100 * dcp.Microsecond
		r := dcp.RunIncast(o)
		dumpOnce("fig14", func() {
			fmt.Println("\n=== Figure 14: queue occupancy over time, N=50 x 4MB (1ms bins, max bytes) ===")
			// Coarse time series: max occupancy per 50ms bin.
			const bin = 50 * dcp.Millisecond
			var cur, binIdx int
			for _, s := range r.QueueSamples {
				idx := int(dcp.Duration(s.At) / bin)
				for idx > binIdx {
					fmt.Printf("t=%4dms max_queue=%6d bytes\n", binIdx*50, cur)
					binIdx++
					cur = 0
				}
				if s.Bytes > cur {
					cur = s.Bytes
				}
			}
			fmt.Printf("t=%4dms max_queue=%6d bytes\n", binIdx*50, cur)
			fmt.Printf("drops(total)=%d timeouts(total)=%d\n", r.BottleneckDrops, r.Timeouts)
		})
		b.ReportMetric(float64(r.BottleneckDrops), "drops")
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
