package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dctcpplus/internal/stats"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// TestTinyWorkloads runs every workload at a few milliseconds per point
// through the same code as a full run, in both modes, and checks that the
// result line carries exactly the declared metrics with their units and
// that the facade and the rebuild agree.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, err := lookup(name, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			res, err := measure(w, config{seed: 3, trace: trace, simSeed: 1, scratch: t.TempDir()}, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			if !res.Correct || res.Attempted != len(w.points) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", name, trace, res.Correct, res.Attempted, log.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
			}
		}
	}
}

// TestMismatchFails forces the rebuild to disagree with the facade on one
// point: that point must count as failed and the run as incorrect.
func TestMismatchFails(t *testing.T) {
	w, err := lookup("oracle_faults", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, order: []int{0, 1, 2, 3}, checks: make([]pointCheck, len(w.points)), log: &bytes.Buffer{}}
	for i, p := range w.points {
		out, _ := rebuild(w, p, mode{})
		out.Violations = 0 // judge the comparison alone
		r.see(i, out, false)
		if i == 2 {
			out.Timeouts++
		}
		r.see(i, out, true)
	}
	res := tally(w, r.checks, &bytes.Buffer{})
	if res.Failed != 1 || res.Correct || !r.checks[2].mismatched {
		t.Fatalf("failed=%d correct=%v checks[2]=%+v", res.Failed, res.Correct, r.checks[2].verdict)
	}
}

// TestRepeatDiffers flags a path that gives two answers for one point.
func TestRepeatDiffers(t *testing.T) {
	var c pointCheck
	out := outcome{Done: 5}
	c.see(out, false, 5)
	out.Drops++
	c.see(out, false, 5)
	if !c.nondeterministic || !c.invalid() {
		t.Fatalf("verdict %+v", c.verdict)
	}
}

// TestTruncatedAndViolated are program defects: failed, but the run stays
// a valid measurement.
func TestTruncatedAndViolated(t *testing.T) {
	var c pointCheck
	c.see(outcome{
		Done:       3,
		Goodput:    stats.Summary{Count: 3, Mean: 150, Max: 490},
		FCT:        stats.Summary{Count: 3, Mean: 60},
		Violations: 2,
	}, false, 36)
	if !c.truncated || !c.violated || !c.failed() || c.invalid() {
		t.Fatalf("verdict %+v", c.verdict)
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   dctcpplus/internal/sim.(*Scheduler).down
             dctcpplus/internal/sim.(*Scheduler).Step
-----------+-------------------------------------------------------
      10ms   runtime.mapaccess2_fast64
             dctcpplus/internal/netsim.(*Switch).Deliver
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   internal/runtime/maps.(*Map).getWithKeySmall
             runtime.mapaccess1_fast64
             dctcpplus/internal/workload.(*Incast).onData
-----------+-------------------------------------------------------
`
	f, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if f.samples != 4 || f.total != 50e6 {
		t.Fatalf("samples=%d total=%v", f.samples, f.total)
	}
	if got := f.share(f.layer["sim"]); got != 0.4 {
		t.Errorf("sim share %v, want 0.4", got)
	}
	if got := f.share(f.mapNet); got != 0.2 {
		t.Errorf("netsim map share %v, want 0.2", got)
	}
	if got := f.share(f.gc); got != 0.2 {
		t.Errorf("gc share %v, want 0.2", got)
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "largeN", "--trace", "2"},
		{"--workload", "largeN", "--sim-seed", "0"},
		{"--workload", "largeN", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
