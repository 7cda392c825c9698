package workload

import (
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// BenchmarkConfig parameterizes the production-cluster benchmark traffic of
// §VI-D: query traffic (small fan-in responses from every worker) mixed
// with heavy-tailed background flows, both arriving as Poisson processes.
// The paper generates 7,000 queries and 7,000 background flows following
// the inter-arrival and size distributions measured in the DCTCP paper's
// production cluster; we reproduce the statistical shape with seeded
// exponential arrivals and a bounded-Pareto size distribution.
type BenchmarkConfig struct {
	// Queries is the number of query transactions.
	Queries int
	// QueryResponseBytes is each worker's response size (2KB in §VI-D).
	QueryResponseBytes int64
	// QueryMeanGap is the mean inter-arrival time of queries.
	QueryMeanGap sim.Duration

	// ShortFlows is the number of short-message transfers (§VI-D's "short
	// messages": the 50KB-1MB coordination traffic of the production
	// cluster).
	ShortFlows int
	// ShortMeanGap is the mean inter-arrival time of short messages.
	ShortMeanGap sim.Duration
	// ShortMinBytes/ShortMaxBytes bound the uniform short-message size.
	ShortMinBytes int64
	ShortMaxBytes int64

	// BackgroundFlows is the number of background transfers.
	BackgroundFlows int
	// BackgroundMeanGap is the mean inter-arrival time of background flows.
	BackgroundMeanGap sim.Duration
	// Background size distribution: bounded Pareto [Min, Max] with shape
	// Alpha. The defaults skew small ("short messages") with a heavy tail
	// of multi-megabyte transfers, matching the cluster measurements the
	// paper references.
	BackgroundMinBytes int64
	BackgroundMaxBytes int64
	BackgroundAlpha    float64
	// BackgroundAggFrac is the probability that a short/background
	// transfer targets the aggregator (the busy node whose link the query
	// fan-ins also cross); the remainder go to random other workers. The
	// paper's production traffic concentrates on hot nodes — without this
	// concentration the query and background classes never contend.
	BackgroundAggFrac float64

	// Factory builds every flow's transport (queries and background).
	Factory FlowFactory
	// Seed drives arrival times, sizes and placements.
	Seed uint64
}

// DefaultBenchmarkConfig returns a scaled-down benchmark preset calibrated
// so the three traffic classes actually contend at the aggregator's link
// (~70-90%% utilization with heavy-tailed episodes): that is the §VI-D
// regime in which DCTCP queries start missing their fan-ins while DCTCP+
// holds them. The paper-scale run (7,000 + 7,000) is the Figure13 spec in
// internal/exp with Queries = Background = 7000. All classes span
// comparable virtual time (counts are proportional to their rates).
func DefaultBenchmarkConfig() BenchmarkConfig {
	return BenchmarkConfig{
		Queries:            500,
		QueryResponseBytes: 2 << 10,
		QueryMeanGap:       1200 * sim.Microsecond,
		ShortFlows:         125,
		ShortMeanGap:       4800 * sim.Microsecond,
		ShortMinBytes:      50 << 10,
		ShortMaxBytes:      1 << 20,
		BackgroundFlows:    500,
		BackgroundMeanGap:  1200 * sim.Microsecond,
		BackgroundMinBytes: 10 << 10,
		BackgroundMaxBytes: 30 << 20,
		BackgroundAlpha:    1.05,
		BackgroundAggFrac:  0.8,
	}
}

func (c BenchmarkConfig) validate() {
	switch {
	case c.Queries < 0 || c.BackgroundFlows < 0 || c.ShortFlows < 0:
		panic("workload: negative benchmark counts")
	case c.Queries == 0 && c.BackgroundFlows == 0 && c.ShortFlows == 0:
		panic("workload: empty benchmark")
	case c.Queries > 0 && (c.QueryResponseBytes <= 0 || c.QueryMeanGap <= 0):
		panic("workload: invalid query parameters")
	case c.ShortFlows > 0 && (c.ShortMinBytes <= 0 ||
		c.ShortMaxBytes < c.ShortMinBytes || c.ShortMeanGap <= 0):
		panic("workload: invalid short-message parameters")
	case c.BackgroundFlows > 0 && (c.BackgroundMinBytes <= 0 ||
		c.BackgroundMaxBytes < c.BackgroundMinBytes || c.BackgroundAlpha <= 0 ||
		c.BackgroundMeanGap <= 0):
		panic("workload: invalid background parameters")
	case c.BackgroundAggFrac < 0 || c.BackgroundAggFrac > 1:
		panic("workload: BackgroundAggFrac out of [0,1]")
	case c.Factory == nil:
		panic("workload: nil FlowFactory")
	}
}

// QueryResult records one completed query transaction.
type QueryResult struct {
	Start sim.Time
	FCT   sim.Duration // request issue to last response byte across the fan-in
}

// FlowResult records one completed background flow.
type FlowResult struct {
	Start sim.Time
	Bytes int64
	FCT   sim.Duration
}

// Benchmark drives the §VI-D traffic mix over a two-tier topology.
type Benchmark struct {
	sched *sim.Scheduler
	tt    *netsim.TwoTier
	cfg   BenchmarkConfig
	rng   *sim.RNG

	nextFlow packet.FlowID
	senders  map[packet.FlowID]*tcp.Sender

	queriesDone int
	shortDone   int
	bgDone      int

	queryResults []QueryResult
	shortResults []FlowResult
	bgResults    []FlowResult

	// Aggregated sender stats, folded in as each flow retires.
	timeouts int64
	retrans  int64

	// OnFinished fires when every query and background flow completed.
	OnFinished func()
}

// NewBenchmark wires the benchmark onto the topology. Flow ids start at
// 10000 to stay clear of other workloads sharing the topology.
func NewBenchmark(sched *sim.Scheduler, tt *netsim.TwoTier, cfg BenchmarkConfig) *Benchmark {
	cfg.validate()
	b := &Benchmark{
		sched:    sched,
		tt:       tt,
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed),
		nextFlow: 10000,
		senders:  make(map[packet.FlowID]*tcp.Sender),
	}
	for _, w := range tt.Workers {
		w.OnControl = b.onRequest
	}
	return b
}

// QueryResults returns the completed query transactions.
func (b *Benchmark) QueryResults() []QueryResult { return b.queryResults }

// ShortResults returns the completed short-message flows.
func (b *Benchmark) ShortResults() []FlowResult { return b.shortResults }

// BackgroundResults returns the completed background flows.
func (b *Benchmark) BackgroundResults() []FlowResult { return b.bgResults }

// TotalTimeouts returns the RTO count accumulated across retired flows.
func (b *Benchmark) TotalTimeouts() int64 { return b.timeouts }

// TotalRetransmissions returns the retransmitted-packet count across
// retired flows.
func (b *Benchmark) TotalRetransmissions() int64 { return b.retrans }

// Finished reports whether all traffic completed.
func (b *Benchmark) Finished() bool {
	return b.queriesDone == b.cfg.Queries &&
		b.shortDone == b.cfg.ShortFlows &&
		b.bgDone == b.cfg.BackgroundFlows
}

// Start schedules every arrival. The caller then runs the scheduler.
func (b *Benchmark) Start() {
	var t sim.Time
	for i := 0; i < b.cfg.Queries; i++ {
		t = t.Add(b.rng.Exp(b.cfg.QueryMeanGap))
		b.sched.At(t, b.issueQuery)
	}
	t = 0
	for i := 0; i < b.cfg.ShortFlows; i++ {
		t = t.Add(b.rng.Exp(b.cfg.ShortMeanGap))
		b.sched.At(t, b.issueShort)
	}
	t = 0
	for i := 0; i < b.cfg.BackgroundFlows; i++ {
		t = t.Add(b.rng.Exp(b.cfg.BackgroundMeanGap))
		b.sched.At(t, b.issueBackground)
	}
}

// issueShort starts one short-message transfer: a uniform size in
// [ShortMinBytes, ShortMaxBytes] between a random worker pair.
func (b *Benchmark) issueShort() {
	size := b.cfg.ShortMinBytes
	if span := b.cfg.ShortMaxBytes - b.cfg.ShortMinBytes; span > 0 {
		size += b.rng.Int63n(span + 1)
	}
	b.issueTransfer(size, &b.shortResults, &b.shortDone)
}

func (b *Benchmark) allocFlow() packet.FlowID {
	id := b.nextFlow
	b.nextFlow++
	return id
}

// onRequest dispatches an arriving query request to its response sender.
func (b *Benchmark) onRequest(pkt *packet.Packet) {
	if snd, ok := b.senders[pkt.Flow]; ok {
		snd.Send(pkt.ReqBytes)
	}
}

// issueQuery starts one partition/aggregate transaction: a fresh connection
// from every worker, a 40-byte request to each, completion when the last
// response byte lands at the aggregator.
func (b *Benchmark) issueQuery() {
	start := b.sched.Now()
	remaining := len(b.tt.Workers)
	for _, w := range b.tt.Workers {
		flow := b.allocFlow()
		cfg, cc := b.cfg.Factory(int(flow))
		conn := tcp.NewConn(cfg, cc, w, b.tt.Aggregator, flow)
		b.senders[flow] = conn.Sender

		var got int64
		conn.Receiver.OnData = func(n int64) {
			got += n
			if got == b.cfg.QueryResponseBytes {
				remaining--
				if remaining == 0 {
					b.queryResults = append(b.queryResults, QueryResult{
						Start: start,
						FCT:   b.sched.Now().Sub(start),
					})
					b.queriesDone++
					b.maybeFinish()
				}
			}
		}
		conn.Sender.OnComplete = func(int64) {
			// Response fully acknowledged: retire the connection.
			st := conn.Sender.Stats()
			b.timeouts += st.Timeouts
			b.retrans += st.RetransPkts
			conn.Close()
			delete(b.senders, flow)
		}
		b.tt.Aggregator.Send(&packet.Packet{
			Dst:      w.ID(),
			Flow:     flow,
			Flags:    packet.FlagREQ,
			ReqBytes: b.cfg.QueryResponseBytes,
			SendTime: start,
		})
	}
}

// issueBackground starts one background transfer with a bounded-Pareto
// size.
func (b *Benchmark) issueBackground() {
	size := int64(b.rng.Pareto(float64(b.cfg.BackgroundMinBytes),
		float64(b.cfg.BackgroundMaxBytes), b.cfg.BackgroundAlpha))
	if size < b.cfg.BackgroundMinBytes {
		size = b.cfg.BackgroundMinBytes
	}
	b.issueTransfer(size, &b.bgResults, &b.bgDone)
}

// issueTransfer starts one point-to-point transfer between a random worker
// and a random other host (another worker or the aggregator), recording
// its completion into the given result set.
func (b *Benchmark) issueTransfer(size int64, results *[]FlowResult, done *int) {
	start := b.sched.Now()
	src := b.tt.Workers[b.rng.Intn(len(b.tt.Workers))]
	dst := b.pickDst(src)

	flow := b.allocFlow()
	cfg, cc := b.cfg.Factory(int(flow))
	conn := tcp.NewConn(cfg, cc, src, dst, flow)

	var got int64
	conn.Receiver.OnData = func(n int64) {
		got += n
		if got == size {
			*results = append(*results, FlowResult{
				Start: start,
				Bytes: size,
				FCT:   b.sched.Now().Sub(start),
			})
			*done++
			b.maybeFinish()
		}
	}
	conn.Sender.OnComplete = func(int64) {
		st := conn.Sender.Stats()
		b.timeouts += st.Timeouts
		b.retrans += st.RetransPkts
		conn.Close()
	}
	conn.Sender.Send(size)
}

// pickDst chooses a destination host distinct from src: the aggregator
// with probability BackgroundAggFrac, otherwise a uniform other worker.
func (b *Benchmark) pickDst(src *netsim.Host) *netsim.Host {
	if b.rng.Float64() < b.cfg.BackgroundAggFrac {
		return b.tt.Aggregator
	}
	hosts := make([]*netsim.Host, 0, len(b.tt.Workers))
	for _, w := range b.tt.Workers {
		if w != src {
			hosts = append(hosts, w)
		}
	}
	if len(hosts) == 0 {
		return b.tt.Aggregator
	}
	return hosts[b.rng.Intn(len(hosts))]
}

func (b *Benchmark) maybeFinish() {
	if b.Finished() && b.OnFinished != nil {
		b.OnFinished()
	}
}
