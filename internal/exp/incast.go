package exp

import (
	"fmt"
	"io"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/oracle"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
	"dctcpplus/internal/trace"
	"dctcpplus/internal/workload"
)

// Testbed describes the simulated cluster shared by every experiment: the
// paper's 2-tier tree of 9 workers + 1 aggregator over 1Gbps GbE switches
// with 128KB per-port buffers and K=32KB.
type Testbed struct {
	Leaves       int
	HostsPerLeaf int
	Topo         netsim.TopologyConfig

	// ServiceJitter staggers worker responses (see workload.IncastConfig);
	// the default models the multithreaded benchmark's scheduling spread
	// on dual-core servers.
	ServiceJitter sim.Duration

	// Seed drives all workload-level randomness.
	Seed uint64
}

// DefaultTestbed returns the paper's cluster parameters. ServiceJitter
// models the response stagger of the multithreaded benchmark: with N up to
// 200 flows over nine dual-core servers, each machine time-slices ~22
// sender threads, spreading response starts over several milliseconds.
func DefaultTestbed() Testbed {
	return Testbed{
		Leaves:        3,
		HostsPerLeaf:  3,
		Topo:          netsim.DefaultTopologyConfig(),
		ServiceJitter: 4 * sim.Millisecond,
		Seed:          1,
	}
}

// HULLTestbed returns the cluster with HULL phantom-queue marking at every
// switch port instead of the DCTCP threshold — the §VII composition with
// the HULL architecture. Pair it with the DCTCP or DCTCP+ protocols: the
// phantom queue marks before any real queue builds, trading ~5% of
// bandwidth for near-empty buffers.
func HULLTestbed() Testbed {
	tb := DefaultTestbed()
	tb.Topo.SwitchPort = netsim.HULLPortConfig()
	return tb
}

// build constructs a fresh scheduler and topology. Experiment runs always
// recycle packets: every consumer in the driver stack (workload handlers,
// taps, probes) copies fields out synchronously, and long sweeps would
// otherwise allocate per packet.
func (tb Testbed) build() (*sim.Scheduler, *netsim.TwoTier) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, tb.Leaves, tb.HostsPerLeaf, tb.Topo)
	tt.EnablePacketPool()
	return sched, tt
}

// IncastOptions parameterizes one incast run (one point of Figs. 1/6/7/8,
// or the instrumented runs behind Fig. 2, Table I, Fig. 9 and Fig. 14).
type IncastOptions struct {
	Testbed  Testbed
	Protocol Protocol

	// Flows is N. TotalBytes is split evenly across flows per round (the
	// paper requests 1MB/N from each of N workers); if BytesPerFlow is
	// nonzero it overrides the split (Fig. 14 uses 4MB per flow).
	Flows        int
	TotalBytes   int64
	BytesPerFlow int64

	Rounds int
	// WarmupRounds are excluded from the reported statistics: the paper
	// averages 1000 rounds, where the initial convergence rounds (§VII,
	// Fig. 14) are statistically invisible; our shorter runs exclude them
	// explicitly.
	WarmupRounds int

	RTOMin sim.Duration

	// CollectCwnd attaches per-ACK cwnd probes (Fig. 2 / Table I).
	CollectCwnd bool
	// QueueSampleEvery samples the bottleneck queue at this period
	// (100us in the paper); zero disables sampling.
	QueueSampleEvery sim.Duration

	// MaxSimTime bounds the run (safety against pathological stalls).
	MaxSimTime sim.Duration

	// Factory, when non-nil, overrides Protocol's default endpoint
	// construction (used by the ablation benches to inject custom DCTCP+
	// parameters; see DCTCPPlusFactory).
	Factory workload.FlowFactory

	// KeepRounds retains the per-round series (including warmup) in the
	// result, for convergence analysis (§VII / Fig. 14).
	KeepRounds bool

	// Telemetry, when non-nil, receives instrument updates from every hot
	// layer of the run (ports, senders, congestion control, workload) under
	// the {proto, flows} label set. The registry is safe to share across a
	// sweep — including RunMany's concurrent points — because instruments
	// are atomic.
	Telemetry *telemetry.Registry

	// Faults, when non-nil, generates a deterministic fault plan from this
	// seeded configuration and injects it into the run (see internal/fault).
	// The run stays a pure function of its options: the same GenConfig
	// yields the same plan, applied at the same virtual times. FaultStats
	// on the result reports what fired.
	Faults *fault.GenConfig

	// Oracle attaches the internal/oracle conformance checker to every
	// connection and the whole topology: protocol violations (ACK
	// monotonicity, retransmission legality, RTO backoff, ECE echo, alpha
	// cadence, the DCTCP+ machine) and network violations (queue bounds,
	// conservation) land on the result's OracleViolations. The checker is
	// a pure observer chained onto existing hooks; a run's traffic is
	// byte-identical with it on or off, but the run drains an extra 100ms
	// of virtual time before the conservation audit.
	Oracle bool

	// FlowIDs relabels the workload's flow ids (see
	// workload.IncastConfig.FlowIDs) — the knob behind the metamorphic
	// permutation harness.
	FlowIDs []packet.FlowID

	// MirrorWorkers reverses the flow-to-worker placement order. The
	// two-tier tree is leaf-symmetric, so on a clean run mirroring is a
	// pure relabeling of identical subtrees and every result must be
	// byte-identical — the topology-mirror metamorphic check.
	MirrorWorkers bool
}

// RoundPoint is one round of an incast run, retained when KeepRounds is
// set.
type RoundPoint struct {
	Start sim.Time
	// FCTms is a reporting-boundary value: milliseconds as float64, the
	// same unit-less shape internal/stats summarizes and figures plot.
	//lint:allow simtime plot-axis milliseconds; the unit is spelled in the name
	FCTms        float64
	GoodputMbps  float64
	FlowTimeouts int64 // flows that hit at least one RTO this round
}

// DefaultIncastOptions returns the basic-incast settings (§VI-B): 1MB
// split over N flows, 200ms RTOmin.
func DefaultIncastOptions(p Protocol, flows int) IncastOptions {
	return IncastOptions{
		Testbed:      DefaultTestbed(),
		Protocol:     p,
		Flows:        flows,
		TotalBytes:   1 << 20,
		Rounds:       50,
		WarmupRounds: 10,
		RTOMin:       200 * sim.Millisecond,
		MaxSimTime:   30 * 60 * sim.Second,
	}
}

func (o IncastOptions) perFlowBytes() int64 {
	if o.BytesPerFlow > 0 {
		return o.BytesPerFlow
	}
	per := o.TotalBytes / int64(o.Flows)
	if per < 1 {
		per = 1
	}
	return per
}

// IncastResult is one completed incast experiment point.
type IncastResult struct {
	Protocol Protocol
	Flows    int
	Rounds   int // measured rounds (after warmup)

	// GoodputMbps and FCTms summarize the measured rounds — the y-axes of
	// Figs. 1/6/7/8/11/12.
	GoodputMbps stats.Summary
	FCTms       stats.Summary

	// Table I columns (fractions over flowxround "transmissions"):
	MinCwndECEFrac   float64 // P[flow sent with cwnd at floor while ECE set]
	TimeoutRoundFrac float64 // P[flow hit >=1 RTO in a round]
	Timeouts         int64   // total RTO count (measured rounds included only via flags; this is whole-run)
	FLossTO          int64
	LAckTO           int64

	// CwndHist is the merged per-ACK cwnd histogram in MSS (Fig. 2);
	// nil unless CollectCwnd.
	CwndHist *stats.Hist
	// ECEAtMinFrac is the fraction of ACK events at the window floor with
	// ECE set; only meaningful with CollectCwnd.
	ECEAtMinFrac float64

	// Queue observations (Figs. 9/14); nil unless QueueSampleEvery > 0.
	QueueSamples []trace.QueueSample

	// BottleneckDrops counts tail drops at the root->aggregator port.
	BottleneckDrops int64

	// Series holds every round (warmup included) when KeepRounds was set.
	Series []RoundPoint

	// SimTime is the virtual time the whole run consumed (all rounds,
	// warmup included) — the span fault plans must overlap to matter.
	SimTime sim.Duration

	// FaultStats totals the injected faults; nil unless Faults was set.
	FaultStats *fault.Stats

	// OracleViolations holds the conformance failures (bounded; see
	// OracleTotal for the unbounded count). Nil unless Oracle was set;
	// empty on a conforming run.
	OracleViolations []oracle.Violation
	// OracleTotal is the total violation count, including any beyond the
	// retained list.
	OracleTotal int64
}

// ConvergedAtRound returns the index of the first round after which no
// round saw a flow timeout, or -1 if the run never converged (or the
// series was not kept). This quantifies the paper's §VII observation that
// DCTCP+ "needs several cycles of RTTs to enter the enhancement
// mechanism" — the first rounds may overflow, then the system stabilizes.
func (r IncastResult) ConvergedAtRound() int {
	if len(r.Series) == 0 {
		return -1
	}
	last := -1
	for i, p := range r.Series {
		if p.FlowTimeouts > 0 {
			last = i
		}
	}
	if last == len(r.Series)-1 {
		return -1 // still timing out at the end
	}
	return last + 1
}

// QueueCDF builds the queue-length CDF (Fig. 9) from the samples.
func (r IncastResult) QueueCDF() *stats.CDF {
	vals := make([]float64, len(r.QueueSamples))
	for i, s := range r.QueueSamples {
		vals[i] = float64(s.Bytes)
	}
	return stats.NewCDF(vals)
}

// RunIncast executes one incast experiment point.
func RunIncast(o IncastOptions) IncastResult { return runIncast(o, nil).IncastResult }

// runIncast is the one incast run path: the basic incast, plus bg's
// persistent long flows when bg is non-nil. Every IncastOptions field
// applies to both.
func runIncast(o IncastOptions, bg *BackgroundIncastOptions) BackgroundIncastResult {
	if o.Rounds <= o.WarmupRounds {
		panic("exp: Rounds must exceed WarmupRounds")
	}
	if o.MaxSimTime <= 0 {
		o.MaxSimTime = 30 * 60 * sim.Second
	}
	if bg != nil && (bg.BackgroundFlows < 0 || bg.BackgroundFlows >= o.Testbed.Leaves*o.Testbed.HostsPerLeaf) {
		panic("exp: BackgroundFlows must be fewer than the workers")
	}
	sched, tt := o.Testbed.build()
	if o.MirrorWorkers {
		for i, j := 0, len(tt.Workers)-1; i < j; i, j = i+1, j-1 {
			tt.Workers[i], tt.Workers[j] = tt.Workers[j], tt.Workers[i]
		}
	}
	factory := o.Factory
	if factory == nil {
		factory = o.Protocol.Factory(o.RTOMin, o.Testbed.Seed)
	}
	// Under fault injection a round's request packet can be destroyed
	// outright (blackout, injected loss); the workload's request retry is
	// the application-level recovery that keeps the barrier from hanging.
	// Clean runs leave it off — nothing can destroy a request — so their
	// event streams are unchanged.
	var reqRetry sim.Duration
	if o.Faults != nil {
		reqRetry = 10 * sim.Millisecond
	}
	in := workload.NewIncast(sched, tt, workload.IncastConfig{
		Flows:         o.Flows,
		BytesPerFlow:  o.perFlowBytes(),
		Rounds:        o.Rounds,
		Factory:       factory,
		ServiceJitter: o.Testbed.ServiceJitter,
		Seed:          o.Testbed.Seed,
		RequestRetry:  reqRetry,
		FlowIDs:       o.FlowIDs,
	})

	// Long flows: one per distinct worker, flow ids above the incast range,
	// endpoints seeded apart from the incast's unless Factory overrides.
	var longs []*workload.LongFlow
	var longConns []*tcp.Conn
	if bg != nil {
		lfFactory := o.Factory
		if lfFactory == nil {
			lfFactory = o.Protocol.Factory(o.RTOMin, o.Testbed.Seed^0xbac)
		}
		for i := 0; i < bg.BackgroundFlows; i++ {
			cfg, cc := lfFactory(1_000_000 + i)
			lf := workload.NewLongFlow(sched, tt.Workers[i], tt.Aggregator,
				packet.FlowID(900_000+i), cfg, cc, bg.ChunkBytes)
			longs = append(longs, lf)
			longConns = append(longConns, lf.Conn())
		}
	}

	// The conformance checker chains onto the endpoint and topology hooks
	// before any traffic (and before the fault injector, though chained
	// observers compose in either order).
	var ck *oracle.Checker
	if o.Oracle {
		ck = oracle.NewChecker(sched)
		for _, c := range in.Conns() {
			ck.AttachConn(c)
		}
		for _, c := range longConns {
			ck.AttachConn(c)
		}
		ck.AttachTwoTier(tt)
	}

	labels := attachRunTelemetry(o.Telemetry, tt, in.Conns(), o.Protocol, o.Flows)
	in.AttachTelemetry(o.Telemetry, labels...)
	// Long flows report under their own role label so their transport events
	// do not blend into the incast flows' counters.
	attachConnTelemetry(o.Telemetry, longConns, withLabel(labels, "role", "background"))

	var inj *fault.Injector
	if o.Faults != nil {
		el := fault.TwoTierElements(tt)
		inj = fault.NewInjector(sched, el)
		inj.AttachTelemetry(o.Telemetry, withLabel(labels, "faults", fault.ClassesLabel(o.Faults.Classes))...)
		inj.Install(fault.Generate(*o.Faults, len(el.Links), len(el.Ports), len(el.Hosts)))
	}

	var probes []*trace.CwndProbe
	if o.CollectCwnd {
		for _, c := range in.Conns() {
			p := trace.NewCwndProbe()
			p.Attach(c.Sender)
			probes = append(probes, p)
		}
	}
	// Every observer is attached before Start, which pumps a long flow's
	// first chunk synchronously.
	for _, lf := range longs {
		lf.Start()
	}
	var sampler *trace.QueueSampler
	if o.QueueSampleEvery > 0 {
		sampler = trace.NewQueueSampler(sched, tt.BottleneckPort, o.QueueSampleEvery)
		sampler.Start()
	}

	in.OnFinished = sched.Halt
	in.Start()
	sched.RunUntil(sim.Time(o.MaxSimTime))
	for _, lf := range longs {
		lf.Stop()
	}
	drained := false
	if o.Oracle && in.Finished() {
		// Completion halts on the final ACK; duplicate retransmissions
		// raced by the originals can still be in flight, and stopped long
		// flows still send the chunks they queued. Drain both so the
		// conservation ledger balances.
		for !sendersDone(longConns) && sched.Now() < sim.Time(o.MaxSimTime) {
			sched.RunFor(100 * sim.Millisecond)
		}
		sched.RunFor(100 * sim.Millisecond)
		drained = sendersDone(longConns)
	}
	finishRunTelemetry(o.Telemetry, sched.Now(), append(in.Conns(), longConns...))

	var res BackgroundIncastResult
	res.Protocol = o.Protocol
	res.Flows = o.Flows
	if bg == nil {
		// Background results leave SimTime unset: the benchmark's rebuild
		// mirror (_perfbench) pins that, bit for bit.
		res.SimTime = sched.Now().Sub(sim.Time(0))
	}
	if inj != nil {
		st := inj.Finish()
		res.FaultStats = &st
	}
	if ck != nil {
		res.OracleViolations = ck.Finish(drained)
		if res.OracleViolations == nil {
			// Empty, not nil: a checked, conforming run stays
			// distinguishable from one that never attached the oracle.
			res.OracleViolations = []oracle.Violation{}
		}
		res.OracleTotal = ck.Total()
	}
	if o.KeepRounds {
		for _, r := range in.Results() {
			pt := RoundPoint{
				Start:       r.Start,
				FCTms:       r.FCT.Millis(),
				GoodputMbps: r.GoodputMbps(),
			}
			for _, f := range r.Flows {
				if f.Timeout {
					pt.FlowTimeouts++
				}
			}
			res.Series = append(res.Series, pt)
		}
	}
	measured := in.Results()
	if len(measured) > o.WarmupRounds {
		measured = measured[o.WarmupRounds:]
	}
	res.Rounds = len(measured)

	var goodputs, fcts []float64
	var timeoutFlags, eceFlags, totalFlags int64
	for _, r := range measured {
		goodputs = append(goodputs, r.GoodputMbps())
		fcts = append(fcts, r.FCT.Millis())
		for _, f := range r.Flows {
			totalFlags++
			if f.Timeout {
				timeoutFlags++
			}
			if f.MinCwndECE {
				eceFlags++
			}
		}
	}
	res.GoodputMbps = stats.Summarize(goodputs)
	res.FCTms = stats.Summarize(fcts)
	if totalFlags > 0 {
		res.TimeoutRoundFrac = float64(timeoutFlags) / float64(totalFlags)
		res.MinCwndECEFrac = float64(eceFlags) / float64(totalFlags)
	}

	// Timeouts count the incast connections only; the long flows' RTOs are
	// theirs, not the incast's.
	for _, c := range in.Conns() {
		st := c.Sender.Stats()
		res.Timeouts += st.Timeouts
		res.FLossTO += st.FLossTimeouts
		res.LAckTO += st.LAckTimeouts
	}
	if o.CollectCwnd {
		res.CwndHist = stats.NewHist()
		var eceAtMin, events int64
		for _, p := range probes {
			res.CwndHist.Merge(p.Hist())
			events += p.Events()
			eceAtMin += int64(p.ECEAtMinFrac() * float64(p.Events()))
		}
		if events > 0 {
			res.ECEAtMinFrac = float64(eceAtMin) / float64(events)
		}
	}
	if sampler != nil {
		sampler.Stop()
		res.QueueSamples = sampler.Samples()
	}
	res.BottleneckDrops = tt.BottleneckPort.Stats().DroppedPkts

	var chunks []float64
	for _, lf := range longs {
		chunks = append(chunks, lf.ChunkThroughputMbps()...)
		res.PerFlowMeanMbps = append(res.PerFlowMeanMbps, lf.MeanThroughputMbps())
	}
	res.LongFlowMbps = stats.Summarize(chunks)
	return res
}

// sendersDone reports whether every connection's sender has all its data
// acknowledged.
func sendersDone(conns []*tcp.Conn) bool {
	for _, c := range conns {
		if !c.Sender.Done() {
			return false
		}
	}
	return true
}

// PrintIncastRows writes a figure curve as aligned text rows.
func PrintIncastRows(w io.Writer, results []IncastResult) {
	fmt.Fprintf(w, "%-14s %5s %10s %10s %10s %10s %9s\n",
		"protocol", "N", "goodput", "fct.mean", "fct.p95", "fct.p99", "timeouts")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %5d %7.0f Mb %8.2fms %8.2fms %8.2fms %9d\n",
			r.Protocol, r.Flows, r.GoodputMbps.Mean,
			r.FCTms.Mean, r.FCTms.P95, r.FCTms.P99, r.Timeouts)
	}
}
