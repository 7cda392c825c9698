package exp

import (
	"fmt"
	"io"

	"dctcpplus/internal/stats"
)

// BackgroundIncastOptions parameterizes the §VI-C experiment: the basic
// incast with persistent long flows consuming the shared bottleneck buffer
// (Fig. 10's topology; results in Figs. 11 and 12).
type BackgroundIncastOptions struct {
	// Incast is the basic incast the long flows run beside. Every field
	// applies as it does to RunIncast — oracle, faults, probes, sampler,
	// KeepRounds, FlowIDs, MirrorWorkers — with two scoping rules: the
	// oracle and fault plan cover the long flows too, while Timeouts and
	// the cwnd probes cover the incast connections only. SimTime is left
	// unset on the result.
	Incast IncastOptions

	// BackgroundFlows is the number of persistent long flows (2 in the
	// paper), sourced from distinct workers toward the aggregator.
	BackgroundFlows int
	// ChunkBytes is the throughput-accounting granularity for long flows
	// (the paper samples every 1GB; simulations use smaller chunks).
	ChunkBytes int64
}

// DefaultBackgroundIncastOptions returns the paper's §VI-C settings with a
// simulation-sized accounting chunk.
func DefaultBackgroundIncastOptions(p Protocol, flows int) BackgroundIncastOptions {
	return BackgroundIncastOptions{
		Incast:          DefaultIncastOptions(p, flows),
		BackgroundFlows: 2,
		ChunkBytes:      4 << 20,
	}
}

// BackgroundIncastResult extends the incast point with long-flow
// throughput.
type BackgroundIncastResult struct {
	IncastResult
	// LongFlowMbps summarizes per-chunk throughput across the long flows.
	LongFlowMbps stats.Summary
	// PerFlowMeanMbps is each long flow's mean throughput, in flow order.
	PerFlowMeanMbps []float64
}

// RunBackgroundIncast executes the incast workload concurrently with
// persistent background flows.
func RunBackgroundIncast(o BackgroundIncastOptions) BackgroundIncastResult {
	return runIncast(o.Incast, &o)
}

// PrintBackgroundIncastRows writes the Figs. 11/12 rows: incast goodput and
// FCT alongside the long flows' throughput.
func PrintBackgroundIncastRows(w io.Writer, results []BackgroundIncastResult) {
	fmt.Fprintf(w, "%-14s %5s %10s %10s %10s %12s %9s\n",
		"protocol", "N", "goodput", "fct.mean", "fct.p99", "longflow", "timeouts")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %5d %7.0f Mb %8.2fms %8.2fms %9.0f Mb %9d\n",
			r.Protocol, r.Flows, r.GoodputMbps.Mean,
			r.FCTms.Mean, r.FCTms.P99, r.LongFlowMbps.Mean, r.Timeouts)
	}
}
