package exp

import (
	"reflect"
	"strings"
	"testing"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// failViolations reports a run's oracle violations with their minimized
// event windows.
func failViolations(t *testing.T, label string, res IncastResult) {
	t.Helper()
	if res.OracleTotal == 0 {
		return
	}
	t.Errorf("%s: %d oracle violations", label, res.OracleTotal)
	for i, v := range res.OracleViolations {
		if i >= 3 {
			t.Logf("  ... (%d more)", len(res.OracleViolations)-i)
			break
		}
		t.Logf("  %v\n    %s", v, strings.Join(v.Window, "\n    "))
	}
}

// TestOracleMatrix runs every protocol under the clean baseline and each
// fault class in isolation — the full resilience sweep, N=64 (deep in the
// massive-incast regime, so TCP and DCTCP hit real RTOs and NewReno
// recovery) — and requires the whole matrix oracle-clean. The fault rows
// auto-calibrate their episode windows to each protocol's run span (see
// ResilienceOptions.Gen), so every cell's pathology actually overlaps
// traffic.
func TestOracleMatrix(t *testing.T) {
	base := DefaultIncastOptions(ProtoDCTCP, 64)
	base.Rounds = 5
	base.WarmupRounds = 1
	base.Oracle = true
	rows := RunResilience(ResilienceOptions{
		Base:      base,
		Protocols: Protocols,
		Gen:       fault.GenConfig{Seed: 11, LossRate: 0.2},
	})
	var stressed bool
	for _, row := range rows {
		for c, res := range row.Results {
			failViolations(t, row.Label+"/"+Protocols[c].String(), res)
			if row.Label != "none" && (res.FaultStats == nil || res.FaultStats.EventsFired == 0) {
				t.Errorf("%s/%s: no fault events fired; the cell is vacuous", row.Label, Protocols[c])
			}
			if res.Timeouts > 0 {
				stressed = true
			}
		}
	}
	if !stressed {
		t.Error("no cell saw an RTO; the matrix never exercised loss recovery")
	}
}

// bgKnownFinding names the background cells the oracle flags: plain TCP
// beside the long flows reports retrans-legality violations, with no fault
// injected (flow 9 at 0.38s: retransmission [268148,269608) beyond granted
// permission 269444) and under every fault class (long flow 900001 at
// 3.02s) — the signature of the failing TCP point in the benchmark's
// oracle_faults workload. Whether it is a TCP bug or a gap in the oracle's
// envelope is not yet established; the pin keeps the report visible until
// one of the two is fixed.
var bgKnownFinding = map[string]string{
	"none/tcp": "retrans-legality",
	"all/tcp":  "retrans-legality",
}

// TestOracleBackgroundMatrix is TestOracleMatrix for the §VI-C scenario:
// every protocol beside two long flows, clean and under every fault class,
// with the long-flow connections attached to the checker. Every cell but
// the pinned known findings must be oracle-clean.
func TestOracleBackgroundMatrix(t *testing.T) {
	type cell struct {
		label string
		opts  BackgroundIncastOptions
	}
	var cells []cell
	for _, faulted := range []bool{false, true} {
		for _, p := range Protocols {
			o := DefaultBackgroundIncastOptions(p, 16)
			o.Incast.RTOMin = 10 * sim.Millisecond
			o.Incast.Rounds = 6
			o.Incast.WarmupRounds = 1
			o.Incast.MaxSimTime = 20 * sim.Second
			o.Incast.Oracle = true
			label := "none/" + p.String()
			if faulted {
				g := fault.DefaultGenConfig(11)
				g.Classes = fault.AllClasses()
				o.Incast.Faults = &g
				label = "all/" + p.String()
			}
			cells = append(cells, cell{label, o})
		}
	}
	results := fanOut(cells, func(c cell) BackgroundIncastResult { return RunBackgroundIncast(c.opts) })
	for i, res := range results {
		label := cells[i].label
		if res.OracleViolations == nil {
			t.Errorf("%s: the oracle did not run", label)
		}
		if cells[i].opts.Incast.Faults != nil && (res.FaultStats == nil || res.FaultStats.EventsFired == 0) {
			t.Errorf("%s: no fault events fired; the cell is vacuous", label)
		}
		if rule, known := bgKnownFinding[label]; known {
			if res.OracleTotal == 0 {
				t.Errorf("%s: known %s finding no longer reproduces; if it was fixed, "+
					"drop the cell from bgKnownFinding", label, rule)
			}
			for _, v := range res.OracleViolations {
				if v.Rule != rule {
					t.Errorf("%s: violation outside the known %s finding: %v", label, rule, v)
				}
			}
			continue
		}
		failViolations(t, label, res.IncastResult)
	}
}

// TestOracleResilienceReportScale pins the cmd/report resilience operating
// point (N=150, RTOmin 10ms): at this fan-in the stall fault makes RTOs
// fire while the timed-out window still sits queued at worker uplinks, and
// the go-back-N copy serializes after the delayed original — legal, and
// formerly a retrans-legality false positive (the RTO grant stopped at the
// wire-observed frontier instead of the pre-rewind snd_nxt).
func TestOracleResilienceReportScale(t *testing.T) {
	base := DefaultIncastOptions(ProtoDCTCP, 150)
	base.Rounds = 10
	base.WarmupRounds = 2
	base.RTOMin = 10 * sim.Millisecond
	base.Oracle = true
	rows := RunResilience(ResilienceOptions{
		Base:      base,
		Protocols: []Protocol{ProtoDCTCP, ProtoDCTCPPlus},
		Gen:       fault.GenConfig{Seed: 1},
	})
	protos := []Protocol{ProtoDCTCP, ProtoDCTCPPlus}
	for _, row := range rows {
		for c, res := range row.Results {
			failViolations(t, row.Label+"/"+protos[c].String(), res)
		}
	}
}

// TestOracleMetamorphicFlowPermutation: flow ids are opaque demux keys, so
// relabeling them must leave every result — clean or faulted — identical.
func TestOracleMetamorphicFlowPermutation(t *testing.T) {
	const n = 12
	perm := make([]packet.FlowID, n)
	for i := range perm {
		// An arbitrary fixed derangement-ish relabeling with a gap in the
		// id space.
		perm[i] = packet.FlowID((i*5)%n + 100)
	}
	for _, tc := range []struct {
		name   string
		faults bool
	}{{"clean", false}, {"faults", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(ids []packet.FlowID) IncastResult {
				o := DefaultIncastOptions(ProtoDCTCPPlus, n)
				o.Rounds = 4
				o.WarmupRounds = 1
				o.Oracle = true
				o.KeepRounds = true
				o.FlowIDs = ids
				if tc.faults {
					g := fault.DefaultGenConfig(5)
					o.Faults = &g
				}
				return RunIncast(o)
			}
			base := mk(nil)
			relabeled := mk(perm)
			failViolations(t, "base", base)
			failViolations(t, "relabeled", relabeled)
			if !reflect.DeepEqual(base, relabeled) {
				t.Errorf("flow-id relabeling changed the run:\nbase:      %+v\nrelabeled: %+v", base, relabeled)
			}
		})
	}
}

// TestOracleMetamorphicMirror: the two-tier tree is leaf-symmetric, so on
// a clean run reversing the flow-to-worker placement is a relabeling of
// identical subtrees and the result must be byte-identical.
func TestOracleMetamorphicMirror(t *testing.T) {
	mk := func(mirror bool) IncastResult {
		o := DefaultIncastOptions(ProtoDCTCP, 18)
		o.Rounds = 4
		o.WarmupRounds = 1
		o.Oracle = true
		o.KeepRounds = true
		o.MirrorWorkers = mirror
		return RunIncast(o)
	}
	straight := mk(false)
	mirrored := mk(true)
	failViolations(t, "straight", straight)
	failViolations(t, "mirrored", mirrored)
	if !reflect.DeepEqual(straight, mirrored) {
		t.Errorf("worker mirroring changed the run:\nstraight: %+v\nmirrored: %+v", straight, mirrored)
	}
}

// TestOracleMetamorphicTimeScaling: doubling every latency parameter
// (propagation delay, RTOmin) while halving every rate scales the
// simulation's whole timeline by exactly 2 — int64-nanosecond event times
// double, so per-round FCTs must double bit-exactly. The equivariance only
// holds when no unscaled randomness enters the timeline: service jitter is
// off, and the scenario is sized so no RTO fires (RTO arithmetic involves
// integer shifts that do not commute with doubling) and the DCTCP+
// machine stays out of its randomized backoff. Zero timeouts in both runs
// is asserted, not assumed.
func TestOracleMetamorphicTimeScaling(t *testing.T) {
	for _, p := range []Protocol{ProtoDCTCP, ProtoDCTCPPlus} {
		t.Run(p.String(), func(t *testing.T) {
			mk := func(scale int64) IncastResult {
				o := DefaultIncastOptions(p, 4)
				o.Rounds = 4
				o.WarmupRounds = 1
				o.Oracle = true
				o.KeepRounds = true
				o.Testbed.ServiceJitter = 0
				o.Testbed.Topo.LinkDelay *= sim.Duration(scale)
				o.Testbed.Topo.LinkRateBps /= scale
				o.RTOMin *= sim.Duration(scale)
				return RunIncast(o)
			}
			unit := mk(1)
			doubled := mk(2)
			failViolations(t, "unit", unit)
			failViolations(t, "doubled", doubled)
			if unit.Timeouts != 0 || doubled.Timeouts != 0 {
				t.Fatalf("scenario not timeout-free (unit %d, doubled %d); scaling exactness does not apply",
					unit.Timeouts, doubled.Timeouts)
			}
			if len(unit.Series) == 0 || len(unit.Series) != len(doubled.Series) {
				t.Fatalf("round series mismatch: %d vs %d", len(unit.Series), len(doubled.Series))
			}
			for i := range unit.Series {
				if doubled.Series[i].FCTms != 2*unit.Series[i].FCTms {
					t.Errorf("round %d: FCT %vms scaled to %vms, want exactly 2x",
						i, unit.Series[i].FCTms, doubled.Series[i].FCTms)
				}
			}
		})
	}
}

// TestOracleOffLeavesResultUnchanged: the checker is a pure observer — a
// run with it attached must report the same experiment numbers as one
// without (modulo the oracle fields themselves and the post-run drain).
func TestOracleOffLeavesResultUnchanged(t *testing.T) {
	mk := func(on bool) IncastResult {
		o := DefaultIncastOptions(ProtoDCTCPPlus, 8)
		o.Rounds = 3
		o.WarmupRounds = 1
		o.KeepRounds = true
		o.Oracle = on
		return RunIncast(o)
	}
	off := mk(false)
	on := mk(true)
	failViolations(t, "on", on)
	on.OracleViolations = nil
	on.OracleTotal = 0
	on.SimTime = off.SimTime // the oracle run drains 100ms extra
	if !reflect.DeepEqual(off, on) {
		t.Errorf("attaching the oracle changed the experiment:\noff: %+v\non:  %+v", off, on)
	}
}
