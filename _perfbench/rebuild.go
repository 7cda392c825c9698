package main

import (
	"time"

	"dctcpplus/internal/exp"
	"dctcpplus/internal/fault"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/oracle"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/workload"
)

// The rebuild re-creates each point from the layer constructors, in the
// order the exp runners call them, so that the benchmark can put spans
// around each layer call and read the layers' public counters. It must
// produce the facade's outcome exactly; the caller checks that it does.

// mode selects what a rebuild adds around the layers.
type mode struct {
	setupOnly bool // build everything, then return before the first event
	traced    bool // time tcp deliveries, track the pending peak, count prodmix senders
	noOracle  bool // leave the oracle off (the baseline for oracle.overhead_s)
}

// layers holds one rebuild's spans and exact counters.
type layers struct {
	// Spans: everything before the first event (topology, workload,
	// oracle, faults, the workload's Start), the workload constructors
	// alone, and the event loop.
	SetupNs, BuildNs, RunNs int64

	Events      uint64
	PendingPeak int

	Enqueued, Drops, Marks      int64 // summed over switch ports
	Segments, Retrans, Timeouts int64 // summed over senders
	Deliveries, DeliverNs       int64 // tcp handler calls and their inclusive time (traced)
	Flows                       int64
	Violations, Faults          int64
}

func (l *layers) add(o layers) {
	l.SetupNs += o.SetupNs
	l.BuildNs += o.BuildNs
	l.RunNs += o.RunNs
	l.Events += o.Events
	l.PendingPeak = max(l.PendingPeak, o.PendingPeak)
	l.Enqueued += o.Enqueued
	l.Drops += o.Drops
	l.Marks += o.Marks
	l.Segments += o.Segments
	l.Retrans += o.Retrans
	l.Timeouts += o.Timeouts
	l.Deliveries += o.Deliveries
	l.DeliverNs += o.DeliverNs
	l.Flows += o.Flows
	l.Violations += o.Violations
	l.Faults += o.Faults
}

// rebuild runs one point of w from the layer constructors.
func rebuild(w *scenario, p point, m mode) (outcome, layers) {
	switch w.kind {
	case kindSweep:
		o, err := p.sweep.Options()
		if err != nil {
			panic(err) // points come from Spec.Expand, which validates them
		}
		return rebuildIncast(o, nil, m)
	case kindIncast:
		return rebuildIncast(p.incast, nil, m)
	case kindBackground:
		return rebuildIncast(p.bg.Incast, &p.bg, m)
	default:
		return rebuildBenchmark(p.bench, m)
	}
}

func since(t time.Time) int64 { return time.Since(t).Nanoseconds() }

// build mirrors exp.Testbed.build.
func build(tb exp.Testbed) (*sim.Scheduler, *netsim.TwoTier) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, tb.Leaves, tb.HostsPerLeaf, tb.Topo)
	tt.EnablePacketPool()
	return sched, tt
}

// rebuildIncast mirrors exp.RunIncast, or exp.RunBackgroundIncast when bg
// is set, for the options the workloads use.
func rebuildIncast(o exp.IncastOptions, bg *exp.BackgroundIncastOptions, m mode) (outcome, layers) {
	var l layers
	if o.MaxSimTime <= 0 {
		o.MaxSimTime = 30 * 60 * sim.Second
	}
	t0 := time.Now()
	sched, tt := build(o.Testbed)
	factory := o.Factory
	if factory == nil {
		factory = o.Protocol.Factory(o.RTOMin, o.Testbed.Seed)
	}
	var reqRetry sim.Duration
	if o.Faults != nil {
		reqRetry = 10 * sim.Millisecond
	}
	b0 := time.Now()
	in := workload.NewIncast(sched, tt, workload.IncastConfig{
		Flows:         o.Flows,
		BytesPerFlow:  perFlowBytes(o),
		Rounds:        o.Rounds,
		Factory:       factory,
		ServiceJitter: o.Testbed.ServiceJitter,
		Seed:          o.Testbed.Seed,
		RequestRetry:  reqRetry,
	})
	var longs []*workload.LongFlow
	if bg != nil {
		lfFactory := o.Factory
		if lfFactory == nil {
			lfFactory = o.Protocol.Factory(o.RTOMin, o.Testbed.Seed^0xbac)
		}
		for i := 0; i < bg.BackgroundFlows; i++ {
			cfg, cc := lfFactory(1_000_000 + i)
			longs = append(longs, workload.NewLongFlow(sched, tt.Workers[i], tt.Aggregator,
				packet.FlowID(900_000+i), cfg, cc, bg.ChunkBytes))
		}
	}
	l.BuildNs = since(b0)
	l.Flows = int64(len(in.Conns()) + len(longs))

	oracleOn := o.Oracle && !m.noOracle
	var ck *oracle.Checker
	if oracleOn {
		ck = oracle.NewChecker(sched)
		for _, c := range in.Conns() {
			ck.AttachConn(c)
		}
		ck.AttachTwoTier(tt)
	}
	var inj *fault.Injector
	if o.Faults != nil {
		el := fault.TwoTierElements(tt)
		inj = fault.NewInjector(sched, el)
		inj.Install(fault.Generate(*o.Faults, len(el.Links), len(el.Ports), len(el.Hosts)))
	}
	var th *timedHandlers
	if m.traced {
		th = &timedHandlers{}
		for i, c := range in.Conns() {
			th.wrap(c, tt.Workers[i%len(tt.Workers)], tt.Aggregator)
		}
		for i, lf := range longs {
			th.wrap(lf.Conn(), tt.Workers[i], tt.Aggregator)
		}
	}
	for _, lf := range longs {
		lf.Start()
	}
	finished := false
	in.OnFinished = func() { finished = true; sched.Halt() }
	in.Start()
	l.SetupNs = since(t0)
	if m.setupOnly {
		return outcome{}, l
	}

	r0 := time.Now()
	var sentinels uint64
	l.PendingPeak, sentinels = runLoop(sched, sim.Time(o.MaxSimTime), &finished, m.traced)
	for _, lf := range longs {
		lf.Stop()
	}
	drained := false
	if oracleOn && in.Finished() {
		sched.RunFor(100 * sim.Millisecond)
		drained = true
	}
	l.RunNs = since(r0)

	var out outcome
	if bg == nil {
		// The background runner leaves SimTime unset; so does its mirror.
		out.SimTime = sched.Now().Sub(sim.Time(0))
	}
	measured := in.Results()
	if len(measured) > o.WarmupRounds {
		measured = measured[o.WarmupRounds:]
	}
	out.Done = len(measured)
	var goodputs, fcts []float64
	for _, r := range measured {
		goodputs = append(goodputs, r.GoodputMbps())
		fcts = append(fcts, r.FCT.Millis())
	}
	out.Goodput = stats.Summarize(goodputs)
	out.FCT = stats.Summarize(fcts)
	for _, c := range in.Conns() {
		out.Timeouts += c.Sender.Stats().Timeouts
	}
	out.Drops = tt.BottleneckPort.Stats().DroppedPkts
	if inj != nil {
		out.Faults = inj.Finish().EventsFired
	}
	if ck != nil {
		ck.Finish(drained)
		out.Violations = ck.Total()
	}
	if bg != nil {
		var chunks []float64
		for _, lf := range longs {
			chunks = append(chunks, lf.ChunkThroughputMbps()...)
		}
		out.Long = stats.Summarize(chunks)
	}

	l.Events = sched.Fired() - sentinels
	conns := in.Conns()
	for _, lf := range longs {
		conns = append(conns, lf.Conn())
	}
	for _, c := range conns {
		st := c.Sender.Stats()
		l.Segments += st.SentPkts
		l.Retrans += st.RetransPkts
		l.Timeouts += st.Timeouts
	}
	switchCounts(tt, &l)
	if th != nil {
		l.Deliveries, l.DeliverNs = th.calls, th.ns
	}
	l.Violations, l.Faults = out.Violations, out.Faults
	return out, l
}

// rebuildBenchmark mirrors exp.RunBenchmark.
func rebuildBenchmark(o exp.BenchmarkOptions, m mode) (outcome, layers) {
	var l layers
	if o.MaxSimTime <= 0 {
		o.MaxSimTime = 60 * 60 * sim.Second
	}
	t0 := time.Now()
	sched, tt := build(o.Testbed)
	cfg := o.Traffic
	cfg.Seed = o.Testbed.Seed
	cfg.Factory = o.Protocol.Factory(o.RTOMin, o.Testbed.Seed)
	// Connections are built and closed per transfer, so the traced run
	// collects each sender as its congestion module is initialised.
	var senders []*tcp.Sender
	if m.traced {
		cfg.Factory = spyFactory(cfg.Factory, &senders)
	}
	b0 := time.Now()
	b := workload.NewBenchmark(sched, tt, cfg)
	l.BuildNs = since(b0)
	finished := false
	b.OnFinished = func() { finished = true; sched.Halt() }
	b.Start()
	l.SetupNs = since(t0)
	if m.setupOnly {
		return outcome{}, l
	}

	r0 := time.Now()
	var sentinels uint64
	l.PendingPeak, sentinels = runLoop(sched, sim.Time(o.MaxSimTime), &finished, m.traced)
	l.RunNs = since(r0)

	millis := func(n int, fct func(i int) sim.Duration) stats.Summary {
		v := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v = append(v, fct(i).Millis())
		}
		return stats.Summarize(v)
	}
	q, s, bgr := b.QueryResults(), b.ShortResults(), b.BackgroundResults()
	out := outcome{
		Done:     len(q) + len(s) + len(bgr),
		FCT:      millis(len(q), func(i int) sim.Duration { return q[i].FCT }),
		Short:    millis(len(s), func(i int) sim.Duration { return s[i].FCT }),
		Long:     millis(len(bgr), func(i int) sim.Duration { return bgr[i].FCT }),
		Timeouts: b.TotalTimeouts(),
	}

	l.Events = sched.Fired() - sentinels
	l.Timeouts = b.TotalTimeouts()
	l.Retrans = b.TotalRetransmissions()
	l.Flows = int64(len(senders))
	for _, snd := range senders {
		l.Segments += snd.Stats().SentPkts
	}
	switchCounts(tt, &l)
	return out, l
}

// perFlowBytes mirrors exp.IncastOptions.perFlowBytes.
func perFlowBytes(o exp.IncastOptions) int64 {
	if o.BytesPerFlow > 0 {
		return o.BytesPerFlow
	}
	return max(o.TotalBytes/int64(o.Flows), 1)
}

func switchCounts(tt *netsim.TwoTier, l *layers) {
	for _, sw := range append([]*netsim.Switch{tt.Root}, tt.Leaves...) {
		st := sw.AggregateStats()
		l.Enqueued += st.EnqueuedPkts
		l.Drops += st.DroppedPkts
		l.Marks += st.MarkedPkts
	}
}

// runLoop is sched.RunUntil(deadline) stopped by finished. Traced, it steps
// the scheduler itself to record the deepest pending queue: a sentinel
// event at the deadline ends the loop where RunUntil would. It returns the
// peak without the sentinel's queue slot, and the number of sentinel
// firings the caller takes out of the event count.
func runLoop(sched *sim.Scheduler, deadline sim.Time, finished *bool, traced bool) (peak int, sentinels uint64) {
	if !traced {
		sched.RunUntil(deadline)
		return 0, 0
	}
	stop := false
	sentinel := sched.At(deadline, func() { stop = true })
	for !*finished && !stop && sched.Step() {
		if n := sched.Pending() - 1; !stop && n > peak {
			peak = n
		}
	}
	if !stop {
		sched.Cancel(sentinel)
		return peak, 0
	}
	// Events due exactly at the deadline but queued after the sentinel
	// still belong to the run.
	sched.RunUntil(deadline)
	return peak, 1
}
