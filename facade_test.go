package dctcpplus_test

import (
	"strings"
	"testing"

	dcp "dctcpplus"
)

func TestFacadeProtocolRoundTrip(t *testing.T) {
	for _, p := range dcp.Protocols {
		got, err := dcp.ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v %v", p, got, err)
		}
	}
}

func TestFacadeIncastEndToEnd(t *testing.T) {
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCP, 6)
	o.Rounds = 5
	o.WarmupRounds = 1
	r := dcp.RunIncast(o)
	if r.Rounds != 4 {
		t.Fatalf("rounds = %d", r.Rounds)
	}
	if r.GoodputMbps.Mean <= 0 || r.FCTms.Mean <= 0 {
		t.Error("degenerate summaries")
	}
	var sb strings.Builder
	dcp.PrintIncastRows(&sb, []dcp.IncastResult{r})
	if !strings.Contains(sb.String(), "dctcp") {
		t.Error("row output missing protocol")
	}
}

func TestFacadeSweepAndDurations(t *testing.T) {
	if dcp.Millisecond != 1000*dcp.Microsecond || dcp.Second != 1000*dcp.Millisecond {
		t.Error("duration units inconsistent")
	}
	var optList []dcp.IncastOptions
	for _, n := range []int{2, 3} {
		o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, n)
		o.Rounds = 4
		o.WarmupRounds = 1
		optList = append(optList, o)
	}
	rs := dcp.RunMany(optList)
	if len(rs) != 2 || rs[0].Flows != 2 || rs[1].Flows != 3 {
		t.Fatal("sweep shape wrong")
	}
}

func TestFacadeEnhancementFactory(t *testing.T) {
	cfg := dcp.DefaultEnhancementConfig()
	if cfg.DivisorFactor != 2 || !cfg.Randomize {
		t.Error("unexpected enhancement defaults")
	}
	cfg.BackoffUnit = 200 * dcp.Microsecond
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 4)
	o.Rounds = 4
	o.WarmupRounds = 1
	o.Factory = dcp.DCTCPPlusFactory(o.RTOMin, 9, cfg)
	r := dcp.RunIncast(o)
	if r.Rounds != 3 {
		t.Fatalf("rounds = %d", r.Rounds)
	}
}

func TestFacadeBackgroundIncast(t *testing.T) {
	o := dcp.DefaultBackgroundIncastOptions(dcp.ProtoDCTCPPlus, 4)
	o.Incast.Rounds = 4
	o.Incast.WarmupRounds = 1
	o.ChunkBytes = 1 << 20
	r := dcp.RunBackgroundIncast(o)
	if len(r.PerFlowMeanMbps) != 2 {
		t.Fatalf("long flows = %d", len(r.PerFlowMeanMbps))
	}
	var sb strings.Builder
	dcp.PrintBackgroundIncastRows(&sb, []dcp.BackgroundIncastResult{r})
	if sb.Len() == 0 {
		t.Error("no row output")
	}
}

func TestFacadeBenchmark(t *testing.T) {
	o := dcp.DefaultBenchmarkOptions(dcp.ProtoDCTCP)
	o.Traffic.Queries = 10
	o.Traffic.BackgroundFlows = 10
	o.Traffic.BackgroundMaxBytes = 1 << 20
	r := dcp.RunBenchmark(o)
	if r.Queries != 10 || r.Background != 10 {
		t.Fatalf("completed %d/%d", r.Queries, r.Background)
	}
	var sb strings.Builder
	dcp.PrintBenchmarkRows(&sb, []dcp.BenchmarkResult{r})
	if sb.Len() == 0 {
		t.Error("no row output")
	}
}

func TestFacadeTestbedDefaults(t *testing.T) {
	tb := dcp.DefaultTestbed()
	if tb.Leaves != 3 || tb.HostsPerLeaf != 3 {
		t.Error("testbed shape wrong")
	}
	if tb.Topo.SwitchPort.BufferBytes != 128<<10 || tb.Topo.SwitchPort.MarkThresholdBytes != 32<<10 {
		t.Error("switch parameters do not match the paper")
	}
}
