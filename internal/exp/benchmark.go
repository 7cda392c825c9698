package exp

import (
	"fmt"
	"io"

	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/workload"
)

// BenchmarkOptions parameterizes the §VI-D production-benchmark experiment
// (Fig. 13): query traffic plus heavy-tailed background flows, both at
// RTOmin = 10ms in the paper.
type BenchmarkOptions struct {
	Testbed  Testbed
	Protocol Protocol
	RTOMin   sim.Duration
	Traffic  workload.BenchmarkConfig // Factory/Seed filled in by the runner

	MaxSimTime sim.Duration
}

// DefaultBenchmarkOptions returns a scaled-down §VI-D run; the Figure13
// spec with Queries = Background = 7000 is the paper-scale configuration.
func DefaultBenchmarkOptions(p Protocol) BenchmarkOptions {
	return BenchmarkOptions{
		Testbed:    DefaultTestbed(),
		Protocol:   p,
		RTOMin:     10 * sim.Millisecond,
		Traffic:    workload.DefaultBenchmarkConfig(),
		MaxSimTime: 60 * 60 * sim.Second,
	}
}

// BenchmarkResult holds the Fig. 13 rows: query and background FCT
// statistics (mean / 95th / 99th percentile).
type BenchmarkResult struct {
	Protocol Protocol

	Queries         int
	QueryFCTms      stats.Summary
	Short           int
	ShortFCTms      stats.Summary
	Background      int
	BackgroundFCTms stats.Summary

	Timeouts int64 // total RTOs across all flows
}

// RunBenchmark executes the benchmark-traffic experiment.
func RunBenchmark(o BenchmarkOptions) BenchmarkResult {
	if o.MaxSimTime <= 0 {
		o.MaxSimTime = 60 * 60 * sim.Second
	}
	sched, tt := o.Testbed.build()
	cfg := o.Traffic
	cfg.Seed = o.Testbed.Seed
	cfg.Factory = o.Protocol.Factory(o.RTOMin, o.Testbed.Seed)

	b := workload.NewBenchmark(sched, tt, cfg)
	b.OnFinished = sched.Halt
	b.Start()
	sched.RunUntil(sim.Time(o.MaxSimTime))

	res := BenchmarkResult{Protocol: o.Protocol}
	var qf []float64
	for _, q := range b.QueryResults() {
		qf = append(qf, q.FCT.Millis())
	}
	res.Queries = len(qf)
	res.QueryFCTms = stats.Summarize(qf)
	var sf []float64
	for _, f := range b.ShortResults() {
		sf = append(sf, f.FCT.Millis())
	}
	res.Short = len(sf)
	res.ShortFCTms = stats.Summarize(sf)
	var bf []float64
	for _, f := range b.BackgroundResults() {
		bf = append(bf, f.FCT.Millis())
	}
	res.Background = len(bf)
	res.BackgroundFCTms = stats.Summarize(bf)
	res.Timeouts = b.TotalTimeouts()
	return res
}

// PrintBenchmarkRows writes Fig. 13's two panels as rows, plus the
// short-message class when it was generated.
func PrintBenchmarkRows(w io.Writer, results []BenchmarkResult) {
	withShorts := false
	for _, r := range results {
		if r.Short > 0 {
			withShorts = true
		}
	}
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %8s %10s %10s %10s",
		"protocol", "queries", "q.mean", "q.p95", "q.p99",
		"bg", "bg.mean", "bg.p95", "bg.p99")
	if withShorts {
		fmt.Fprintf(w, " %7s %10s %10s", "short", "s.mean", "s.p99")
	}
	fmt.Fprintln(w)
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %8d %8.2fms %8.2fms %8.2fms %8d %8.2fms %8.2fms %8.2fms",
			r.Protocol, r.Queries,
			r.QueryFCTms.Mean, r.QueryFCTms.P95, r.QueryFCTms.P99,
			r.Background,
			r.BackgroundFCTms.Mean, r.BackgroundFCTms.P95, r.BackgroundFCTms.P99)
		if withShorts {
			fmt.Fprintf(w, " %7d %8.2fms %8.2fms", r.Short, r.ShortFCTms.Mean, r.ShortFCTms.P99)
		}
		fmt.Fprintln(w)
	}
}
