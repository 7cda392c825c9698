// Package dctcpplus is a packet-level reproduction of "Slowing Little
// Quickens More: Improving DCTCP for Massive Concurrent Flows" (Miao,
// Cheng, Ren, Shu — ICPP 2015).
//
// The paper's artifact is a Linux-kernel congestion-control patch
// evaluated on a physical incast testbed. This library rebuilds the whole
// stack as a deterministic discrete-event simulation: an event engine, a
// 2-tier GbE topology with ECN-marking shared-buffer switches, a TCP
// NewReno engine with pluggable congestion control, DCTCP, and DCTCP+ —
// the paper's contribution: when the congestion window is pinned at its
// floor and ECN feedback keeps arriving, regulate the sending *time
// interval* (slow_time) with randomized AIMD backoff to both slow down and
// desynchronize massive concurrent flows.
//
// This package is the public facade: protocol selection, experiment
// configuration, and runners for every figure and table in the paper's
// evaluation. The building blocks live under internal/ (see DESIGN.md for
// the system inventory):
//
//	internal/sim      discrete-event engine (clock, scheduler, RNG)
//	internal/packet   segment model with ECN codepoints
//	internal/netsim   links, ECN switches, hosts, topologies
//	internal/tcp      TCP engine: NewReno, RTO taxonomy, ECN echo modes
//	internal/dctcp    DCTCP congestion module (alpha estimator)
//	internal/core     DCTCP+ (Fig. 4 state machine, Algorithm 1)
//	internal/workload incast / background / production-benchmark traffic
//	internal/stats    summaries, CDFs, histograms
//	internal/trace    cwnd probes and queue samplers
//	internal/exp      per-figure experiment runners
//	internal/sweep    grid orchestration: worker pool, result cache, resume
//
// # Quick start
//
//	opts := dctcpplus.DefaultIncastOptions(dctcpplus.ProtoDCTCPPlus, 100)
//	res := dctcpplus.RunIncast(opts)
//	fmt.Printf("N=100 goodput %.0f Mbps, FCT %.1f ms\n",
//	    res.GoodputMbps.Mean, res.FCTms.Mean)
//
// Every run is a pure function of its options (seeded randomness, virtual
// time only), so results are exactly reproducible.
package dctcpplus

import (
	"io"

	"dctcpplus/internal/core"
	"dctcpplus/internal/exp"
	"dctcpplus/internal/fault"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/sweep"
	"dctcpplus/internal/sweep/pool"
	"dctcpplus/internal/telemetry"
	"dctcpplus/internal/workload"
)

// Protocol selects a transport variant under evaluation.
type Protocol = exp.Protocol

// The protocol variants. See the exp package for details.
const (
	// ProtoTCP is plain TCP NewReno without ECN.
	ProtoTCP = exp.ProtoTCP
	// ProtoDCTCP is DCTCP with the standard 2-MSS window floor.
	ProtoDCTCP = exp.ProtoDCTCP
	// ProtoDCTCPMin1 is DCTCP with a 1-MSS floor (footnote-3 control).
	ProtoDCTCPMin1 = exp.ProtoDCTCPMin1
	// ProtoDCTCPPlus is the full DCTCP+.
	ProtoDCTCPPlus = exp.ProtoDCTCPPlus
	// ProtoDCTCPPlusPartial is DCTCP+ without desynchronization (Fig. 6).
	ProtoDCTCPPlusPartial = exp.ProtoDCTCPPlusPartial
	// ProtoRenoPlus is Reno-ECN plus the enhancement mechanism (§VII).
	ProtoRenoPlus = exp.ProtoRenoPlus
	// ProtoD2TCP is Deadline-Aware DCTCP with mixed per-flow urgencies.
	ProtoD2TCP = exp.ProtoD2TCP
	// ProtoD2TCPPlus is D2TCP plus the enhancement mechanism (§VII).
	ProtoD2TCPPlus = exp.ProtoD2TCPPlus
)

// Protocols lists every variant in display order.
var Protocols = exp.Protocols

// ParseProtocol maps a protocol name back to its value.
func ParseProtocol(s string) (Protocol, error) { return exp.ParseProtocol(s) }

// Duration re-exports the virtual-time duration type used in options.
type Duration = sim.Duration

// Common virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Experiment configuration and results.
type (
	// Testbed describes the simulated cluster.
	Testbed = exp.Testbed
	// IncastOptions parameterizes one incast run (Figs. 1/2/6/7/8/9/14,
	// Table I).
	IncastOptions = exp.IncastOptions
	// IncastResult is one incast experiment point.
	IncastResult = exp.IncastResult
	// BackgroundIncastOptions parameterizes incast + long flows (Figs.
	// 10-12).
	BackgroundIncastOptions = exp.BackgroundIncastOptions
	// BackgroundIncastResult extends IncastResult with long-flow numbers.
	BackgroundIncastResult = exp.BackgroundIncastResult
	// BenchmarkOptions parameterizes the production benchmark mix (Fig. 13).
	BenchmarkOptions = exp.BenchmarkOptions
	// BenchmarkResult holds the Fig. 13 rows.
	BenchmarkResult = exp.BenchmarkResult
)

// DefaultTestbed returns the paper's cluster parameters (9 workers + 1
// aggregator, 1Gbps links, 128KB port buffers, K=32KB).
func DefaultTestbed() Testbed { return exp.DefaultTestbed() }

// HULLTestbed returns the cluster with HULL phantom-queue marking instead
// of the DCTCP threshold (the §VII composition with HULL).
func HULLTestbed() Testbed { return exp.HULLTestbed() }

// DefaultIncastOptions returns §VI-B basic-incast settings for protocol p
// with N concurrent flows.
func DefaultIncastOptions(p Protocol, flows int) IncastOptions {
	return exp.DefaultIncastOptions(p, flows)
}

// DefaultBackgroundIncastOptions returns §VI-C settings (incast + 2
// persistent flows).
func DefaultBackgroundIncastOptions(p Protocol, flows int) BackgroundIncastOptions {
	return exp.DefaultBackgroundIncastOptions(p, flows)
}

// DefaultBenchmarkOptions returns §VI-D benchmark-traffic settings.
func DefaultBenchmarkOptions(p Protocol) BenchmarkOptions {
	return exp.DefaultBenchmarkOptions(p)
}

// RunIncast executes one incast experiment point.
func RunIncast(o IncastOptions) IncastResult { return exp.RunIncast(o) }

// RunMany executes heterogeneous incast points concurrently; results are
// positional and identical to a plain loop over RunIncast.
func RunMany(optList []IncastOptions) []IncastResult { return exp.RunMany(optList) }

// Sweep orchestration (internal/sweep): declare a parameter grid as a
// SweepSpec, run it with a SweepRunner, and get cross-seed streaming
// aggregates plus a content-addressed cache that lets identical points be
// reused across runs and interrupted sweeps resume.
type (
	// SweepSpec declares a sweep as a cross product of grid dimensions.
	SweepSpec = sweep.Spec
	// SweepPoint is the complete identity of one sweep job.
	SweepPoint = sweep.Point
	// SweepJob is one expanded grid point with its position.
	SweepJob = sweep.Job
	// SweepResult is the cacheable outcome of one job.
	SweepResult = sweep.Result
	// SweepRunner executes sweeps over a bounded worker pool.
	SweepRunner = sweep.Runner
	// SweepOutcome is the full accounting of one sweep run.
	SweepOutcome = sweep.Outcome
	// SweepGroup is the cross-seed aggregate of one experiment point.
	SweepGroup = sweep.Group
	// SweepCache is the content-addressed on-disk result store.
	SweepCache = sweep.Cache
)

// Topology names accepted by SweepSpec.Topos / SweepPoint.Topo.
const (
	SweepTopoDefault = sweep.TopoDefault
	SweepTopoHULL    = sweep.TopoHULL
)

// OpenSweepCache opens (creating if needed) a sweep result cache at dir.
func OpenSweepCache(dir string) (*SweepCache, error) { return sweep.OpenCache(dir) }

// LargeNSweepSpec returns the massive-concurrency scenario (N=100..2000,
// DCTCP+ vs DCTCP) behind EXPERIMENTS.md's large-N table.
func LargeNSweepSpec() SweepSpec { return sweep.LargeNSpec() }

// WriteSweepGroups renders the cross-seed aggregate table.
func WriteSweepGroups(w io.Writer, groups []*SweepGroup) error {
	return sweep.WriteGroups(w, groups)
}

// SweepOracleReport folds the conformance-oracle outcome of a completed
// sweep: the total violation count plus one rendered block per violating
// point (identity, then sampled violations with their minimized event
// windows). (0, nil) means the sweep ran oracle-clean.
func SweepOracleReport(results []SweepResult) (total int64, lines []string) {
	return sweep.OracleReport(results)
}

// DefaultSweepWorkers is the worker-pool width used when a runner's
// Workers field (or a command's -jobs flag) is left at its default: one
// worker per available CPU.
func DefaultSweepWorkers() int { return pool.DefaultWorkers() }

// SetParallelism sets the worker count RunMany and the figure specs fan
// out to (a command's -jobs flag lands here). Width changes wall-clock time
// only, never results.
func SetParallelism(n int) { exp.Parallelism = n }

// RunBackgroundIncast executes incast concurrently with long flows.
func RunBackgroundIncast(o BackgroundIncastOptions) BackgroundIncastResult {
	return exp.RunBackgroundIncast(o)
}

// RunBenchmark executes the production benchmark-traffic experiment.
func RunBenchmark(o BenchmarkOptions) BenchmarkResult { return exp.RunBenchmark(o) }

// PrintIncastRows writes an incast curve as aligned text rows.
func PrintIncastRows(w io.Writer, results []IncastResult) { exp.PrintIncastRows(w, results) }

// PrintBackgroundIncastRows writes the Figs. 11/12 rows.
func PrintBackgroundIncastRows(w io.Writer, results []BackgroundIncastResult) {
	exp.PrintBackgroundIncastRows(w, results)
}

// PrintBenchmarkRows writes the Fig. 13 rows.
func PrintBenchmarkRows(w io.Writer, results []BenchmarkResult) {
	exp.PrintBenchmarkRows(w, results)
}

// EnhancementConfig parameterizes the DCTCP+ mechanism itself (backoff
// unit, divisor, threshold, desynchronization) for ablation studies.
type EnhancementConfig = core.Config

// DefaultEnhancementConfig returns the calibrated DCTCP+ parameters.
func DefaultEnhancementConfig() EnhancementConfig { return core.DefaultConfig() }

// FlowFactory builds per-flow transports; plug one into
// IncastOptions.Factory to run custom variants.
type FlowFactory = workload.FlowFactory

// DCTCPPlusFactory builds DCTCP+ endpoints with a custom enhancement
// configuration, for parameter sweeps.
func DCTCPPlusFactory(rtoMin Duration, seedBase uint64, cfg EnhancementConfig) FlowFactory {
	return exp.DCTCPPlusFactory(rtoMin, seedBase, cfg)
}

// JainIndex computes Jain's fairness index over per-flow allocations
// (1 = perfectly equal shares, 1/n = one flow holds everything).
func JainIndex(x []float64) float64 { return stats.JainIndex(x) }

// Observability: set IncastOptions.Telemetry (or Scale.Telemetry for the
// figure specs) to a Registry and every hot layer of the run — switch
// ports, senders, congestion control, workload — records its events there.
// Snapshot the registry after the run and export it as JSON lines,
// Prometheus text format, or a human table; see README's "Observability"
// section.
type (
	// Registry collects named, label-keyed instruments. Instruments are
	// atomic, so one registry serves parallel sweeps; a nil *Registry is a
	// valid no-op sink.
	Registry = telemetry.Registry
	// MetricLabel is one key=value pair of an instrument's identity.
	MetricLabel = telemetry.Label
	// MetricsSnapshot is a point-in-time dump of a registry, with the
	// exporter methods (WriteJSONLines, WritePrometheus, WriteTable).
	MetricsSnapshot = telemetry.Snapshot
	// Manifest is the machine-readable record of one run (config, seed,
	// code version, wall/sim time, instrument dump).
	Manifest = telemetry.Manifest
)

// NewRegistry returns an empty telemetry registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewManifest starts a run manifest, capturing wall clock, git state and
// toolchain version.
func NewManifest(name string, seed uint64) *Manifest { return telemetry.NewManifest(name, seed) }

// ReadManifestFile reads a manifest written by WriteManifestFile.
func ReadManifestFile(path string) (*Manifest, error) { return telemetry.ReadManifestFile(path) }

// WriteManifestFile atomically writes a manifest to path.
func WriteManifestFile(path string, m *Manifest) error { return telemetry.WriteManifestFile(path, m) }

// DiffManifests summarizes the per-instrument deltas between two run
// manifests (counter values and histogram counts), one human-readable line
// per changed instrument. Use it to compare a fresh -baseline run against
// the committed BENCH_baseline.json.
func DiffManifests(base, cur *Manifest) []string { return telemetry.DiffSummaries(base, cur) }

// Fault injection: deterministic, schedulable pathologies composed with
// any incast run — link blackouts, seeded random loss, rate/delay
// degradation, switch buffer carving, host stalls (see DESIGN.md's fault
// model). Set IncastOptions.Faults to a FaultGenConfig and the run injects
// the generated plan at its virtual times; the run stays a pure function
// of options + seed. RunResilience produces the EXPERIMENTS.md resilience
// table.
type (
	// FaultClass names a family of faults: blackout, loss, rate, delay,
	// buffer, stall.
	FaultClass = fault.Class
	// FaultGenConfig parameterizes the seeded fault-plan generator.
	FaultGenConfig = fault.GenConfig
	// FaultStats totals what a fault plan did to a run.
	FaultStats = fault.Stats
	// ResilienceOptions parameterizes the clean-vs-faulted, per-class
	// protocol comparison sweep.
	ResilienceOptions = exp.ResilienceOptions
	// ResilienceRow is one fault class evaluated across the protocols.
	ResilienceRow = exp.ResilienceRow
)

// DefaultFaultGenConfig returns the moderate fault mix (two 10ms-scale
// episodes per class in [20ms, 220ms)) under the given seed.
func DefaultFaultGenConfig(seed uint64) FaultGenConfig { return fault.DefaultGenConfig(seed) }

// AllFaultClasses lists every fault class in declaration order.
func AllFaultClasses() []FaultClass { return fault.AllClasses() }

// ParseFaultClasses resolves a comma-separated fault-class list ("all" or
// "" selects every class).
func ParseFaultClasses(s string) ([]FaultClass, error) { return fault.ParseClasses(s) }

// RunResilience executes the resilience sweep: each protocol clean, then
// under each fault class in isolation.
func RunResilience(o ResilienceOptions) []ResilienceRow { return exp.RunResilience(o) }

// PrintResilienceRows writes the resilience sweep as aligned text rows.
func PrintResilienceRows(w io.Writer, protocols []Protocol, rows []ResilienceRow) {
	exp.PrintResilienceRows(w, protocols, rows)
}

// Typed per-figure experiments: construct the spec at a scale
// (NewFigureN), adjust fields, Run, then Render the same rows/series the
// paper reports.
type (
	// Scale applies common run-length settings to figure specs.
	Scale = exp.Scale
	// Figure2Table1 is the cwnd distribution + timeout taxonomy analysis.
	Figure2Table1 = exp.Figure2Table1
	// Figure7 is the headline comparison (Figures 1/6/8 are variants).
	Figure7 = exp.Figure7
	// Figure9 is the bottleneck queue-length CDF comparison.
	Figure9 = exp.Figure9
	// Figure11_12 is the incast-with-background-flows experiment.
	Figure11_12 = exp.Figure11_12
	// Figure13 is the production benchmark-traffic experiment.
	Figure13 = exp.Figure13
	// Figure14 is the DCTCP+ convergence trace.
	Figure14 = exp.Figure14
)

// DefaultScale returns the report's default run-length settings.
func DefaultScale() Scale { return exp.DefaultScale() }

// NewFigure1 returns the Figure 1 (DCTCP vs TCP goodput) specification.
func NewFigure1(sc Scale) *Figure7 { return exp.NewFigure1(sc) }

// NewFigure2Table1 returns the Figure 2 / Table I specification.
func NewFigure2Table1(sc Scale) *Figure2Table1 { return exp.NewFigure2Table1(sc) }

// NewFigure6 returns the Figure 6 (partial DCTCP+) specification.
func NewFigure6(sc Scale) *Figure7 { return exp.NewFigure6(sc) }

// NewFigure7 returns the Figure 7 specification.
func NewFigure7(sc Scale) *Figure7 { return exp.NewFigure7(sc) }

// NewFigure8 returns the Figure 8 (10ms baseline RTO) specification.
func NewFigure8(sc Scale) *Figure7 { return exp.NewFigure8(sc) }

// NewFigure9 returns the Figure 9 specification.
func NewFigure9(sc Scale) *Figure9 { return exp.NewFigure9(sc) }

// NewFigure11_12 returns the §VI-C specification.
func NewFigure11_12(sc Scale) *Figure11_12 { return exp.NewFigure11_12(sc) }

// NewFigure13 returns the §VI-D specification.
func NewFigure13(sc Scale) *Figure13 { return exp.NewFigure13(sc) }

// NewFigure14 returns the Figure 14 specification.
func NewFigure14(sc Scale) *Figure14 { return exp.NewFigure14(sc) }
