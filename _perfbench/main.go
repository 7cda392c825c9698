// Command perfbench is the repository's performance benchmark. It runs one
// workload, a fixed list of simulation points, through the public facade
// and reports end-to-end host-time metrics; with --trace 1 it rebuilds the
// same points from the layer constructors and reports per-layer metrics
// instead. Every run checks the simulated outputs: each point must finish
// within its budget, conform to the oracle, repeat exactly, and match
// between the facade and the rebuild.
//
// Usage, from the repository root:
//
//	python3 _perfbench/run.py --workload largeN --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See NOTES.md for the workloads,
// the metrics and what each is expected to move.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dctcpplus"
)

// config is one run's command line.
type config struct {
	seed    int64   // orders the points of every pass
	seconds float64 // measured duration
	trace   bool    // per-layer run instead of end-to-end
	simSeed uint64  // shifts every simulation seed
	scratch string  // directory for profiles and the replay cache
}

// Set-up blocks: every point is set up at least minSetupReps times in a
// run, in blocks of setupBlockTime (or maxSetupReps) after each pass.
const (
	minSetupReps   = 5
	maxSetupReps   = 200
	setupBlockTime = 200 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The load is one simulation at a time, so the benchmark gives the Go
	// runtime one P. With two, the collector runs beside the simulation
	// on the other vCPU, whose share of a shared host varies: on a 2-vCPU
	// KVM guest largeN's peak RSS then spread 24% between runs, and
	// bg_longflows passes ranged over 3.0-5.5 s against 3.0-3.6 s with one
	// P in the same minutes.
	runtime.GOMAXPROCS(1)
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "orders the points of every pass")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced rebuild")
	simSeed := fs.Uint64("sim-seed", 1, "simulation seed (1 is the documented configuration)")
	scratch := fs.String("scratch", ".bench_build", "directory for profiles and the replay cache")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *simSeed == 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload <name> --seed <n> --seconds <s> --trace <0|1> [--sim-seed <n>=1]")
		return 2
	}
	w, err := lookup(*name, *simSeed, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, simSeed: *simSeed, scratch: *scratch}
	res, err := measure(w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs one workload and returns its result line. Progress, the
// machine record and per-point verdicts go to log.
func measure(w *scenario, cfg config, log io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(log, "machine: %s\n", machineRecord())
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(w.points))
	fmt.Fprintf(log, "workload %s: %d points, sim-seed %d, order %v\n", w.name, len(w.points), cfg.simSeed, order)

	r := &runner{w: w, order: order, checks: make([]pointCheck, len(w.points)), log: log}
	var metrics map[string]metric
	if cfg.trace {
		metrics, err = r.traced(cfg, tmp)
	} else {
		metrics, err = r.endToEnd(cfg)
	}
	if err != nil {
		return result{}, err
	}

	res := tally(w, r.checks, log)
	res.Metrics = metrics
	if cfg.trace {
		res.Metrics["ops_failed_share"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	} else {
		res.Metrics["ops_ok_share"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	}
	return res, nil
}

// tally counts the failed points and logs one verdict line per point plus
// a fingerprint of every outcome, which runs of one seed must repeat.
func tally(w *scenario, checks []pointCheck, log io.Writer) result {
	res := result{Correct: true, Attempted: len(w.points)}
	all := sha256.New()
	for i, p := range w.points {
		c := checks[i]
		fmt.Fprintf(log, "point %-26s %-22s done=%d/%d fingerprint=%x\n",
			p.label, c.verdict, c.done, w.wantDone(p), sha256.Sum256([]byte(c.facade)))
		for _, v := range c.violations {
			fmt.Fprintf(log, "    %s\n", v)
		}
		fmt.Fprintln(all, c.facade)
		if c.failed() {
			res.Failed++
		}
		if c.invalid() {
			res.Correct = false
		}
	}
	fmt.Fprintf(log, "fingerprint: %x\n", all.Sum(nil))
	return res
}

// runner holds one run's workload, point order and per-point checks.
type runner struct {
	w      *scenario
	order  []int // pass order: order[k] is the k-th point run
	checks []pointCheck
	log    io.Writer // one line per pass
}

// endToEnd measures the untraced facade: one rebuild pass for the exact
// event count, then facade passes for cfg.seconds, each followed by a
// block of set-up repetitions.
func (r *runner) endToEnd(cfg config) (map[string]metric, error) {
	// The rebuild pass doubles as the warm-up before timing.
	counts, _, _ := r.rebuildPass(mode{})

	var walls []float64
	setups := make([][]float64, len(r.w.points))
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < cfg.seconds {
		wall, _, err := r.facadePass(nil, false)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		r.setupBlock(setups)
	}
	for len(setups[0]) < minSetupReps {
		r.setupBlock(setups)
	}
	wall := median(walls)
	setup := 0.0
	for _, s := range setups {
		setup += median(s)
	}
	return map[string]metric{
		"wall_s":       {wall, "s"},
		"events_per_s": {float64(counts.Events) / wall, "1/s"},
		"setup_s":      {setup, "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}, nil
}

// setupBlock sets every point up, without running it, again and again for
// setupBlockTime, appending each set-up time to setups[point]. A point's
// set-up takes micro- to milliseconds and the host's speed drifts over
// seconds, so setup_s sums the points' median set-up times over blocks
// spread across the whole run. An untimed collection before each set-up
// gives every one the same heap to start from, whatever the point order.
func (r *runner) setupBlock(setups [][]float64) {
	start := time.Now()
	for reps := 0; reps == 0 || time.Since(start) < setupBlockTime && reps < maxSetupReps; reps++ {
		for _, k := range r.order {
			runtime.GC()
			_, l := rebuild(r.w, r.w.points[k], mode{setupOnly: true})
			setups[k] = append(setups[k], float64(l.SetupNs)/1e9)
		}
	}
}

// traced runs cycles of facade, plain rebuild, traced rebuild under the
// CPU profiler and, where the workload has them, the oracle-off rebuild
// and the sweep-cache replay, for cfg.seconds and at least once. Each
// overhead is the median over cycles of a difference between passes of
// one cycle, so that slow drift in host speed cancels.
func (r *runner) traced(cfg config, tmp string) (map[string]metric, error) {
	hasOracle := false
	for _, p := range r.w.points {
		hasOracle = hasOracle || p.incast.Oracle
	}
	var (
		expOver, tracingOver, oracleOver, sweepOver []float64
		runS, buildS, replay                        []float64
		plainL, tracedL                             layers
		allocs, mallocs                             uint64
		profiles                                    []string
	)
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start).Seconds() < cfg.seconds; cycle++ {
		facade, over, err := r.facadePass(nil, false)
		if err != nil {
			return nil, err
		}
		sweepOver = append(sweepOver, over)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, _, plain := r.rebuildPass(mode{})
		runtime.ReadMemStats(&after)
		expOver = append(expOver, facade-plain)
		runS = append(runS, float64(l.RunNs)/1e9)
		buildS = append(buildS, float64(l.BuildNs)/1e9)
		plainL = l
		allocs, mallocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs

		prof := filepath.Join(tmp, fmt.Sprintf("cpu-%d.pprof", cycle))
		f, err := os.Create(prof)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		l, perPoint, traced := r.rebuildPass(mode{traced: true})
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		profiles = append(profiles, prof)
		tracingOver = append(tracingOver, traced-facade)
		tracedL = l
		for k, pl := range perPoint {
			// The traced loop steps the scheduler itself; it must see
			// exactly the events the plain run fired.
			if pl.Events != r.checks[k].events {
				r.checks[k].mismatched = true
			}
		}

		if hasOracle {
			_, _, off := r.rebuildPass(mode{noOracle: true})
			oracleOver = append(oracleOver, plain-off)
		}
		if r.w.kind == kindSweep {
			wall, err := r.replay(filepath.Join(tmp, fmt.Sprintf("cache-%d", cycle)))
			if err != nil {
				return nil, err
			}
			replay = append(replay, wall)
		}
	}

	fold, err := foldProfiles(profiles)
	if err != nil {
		return nil, err
	}
	events := float64(plainL.Events)
	perEvent := func(v uint64) float64 {
		if events == 0 {
			return 0
		}
		return float64(v) / events
	}
	deliverNs := 0.0
	if tracedL.Deliveries > 0 {
		deliverNs = float64(tracedL.DeliverNs) / float64(tracedL.Deliveries)
	}
	return map[string]metric{
		"sim.events":               {events, "count"},
		"sim.pending_peak":         {float64(tracedL.PendingPeak), "count"},
		"sim.run_s":                {median(runS), "s"},
		"sim.cpu_share":            {fold.share(fold.layer["sim"]), "ratio"},
		"netsim.pkts_enqueued":     {float64(tracedL.Enqueued), "count"},
		"netsim.drops":             {float64(tracedL.Drops), "count"},
		"netsim.ecn_marks":         {float64(tracedL.Marks), "count"},
		"netsim.cpu_share":         {fold.share(fold.layer["netsim"]), "ratio"},
		"netsim.map_share":         {fold.share(fold.mapNet), "ratio"},
		"packet.cpu_share":         {fold.share(fold.layer["packet"]), "ratio"},
		"tcp.segments":             {float64(tracedL.Segments), "count"},
		"tcp.retransmits":          {float64(tracedL.Retrans), "count"},
		"tcp.timeouts":             {float64(tracedL.Timeouts), "count"},
		"tcp.deliver_ns":           {deliverNs, "ns"},
		"tcp.cpu_share":            {fold.share(fold.layer["tcp"]), "ratio"},
		"cc.cpu_share":             {fold.share(fold.layer["cc"]), "ratio"},
		"workload.flows":           {float64(tracedL.Flows), "count"},
		"workload.build_s":         {median(buildS), "s"},
		"exp.overhead_s":           {median(expOver), "s"},
		"sweep.overhead_s":         {median(sweepOver), "s"},
		"sweep.replay_s":           {median(replay), "s"},
		"oracle.violations":        {float64(tracedL.Violations), "count"},
		"oracle.overhead_s":        {median(oracleOver), "s"},
		"oracle.cpu_share":         {fold.share(fold.layer["oracle"]), "ratio"},
		"fault.injected":           {float64(tracedL.Faults), "count"},
		"fault.cpu_share":          {fold.share(fold.layer["fault"]), "ratio"},
		"go.alloc_bytes_per_event": {perEvent(allocs), "B"},
		"go.mallocs_per_event":     {perEvent(mallocs), "count"},
		"go.gc_cpu_share":          {fold.share(fold.gc), "ratio"},
		"bench.tracing_overhead_s": {median(tracingOver), "s"},
	}, nil
}

// facadePass runs every point through the public facade and returns its
// wall time in seconds and, for sweep workloads, the runner's own share of
// it: runner wall minus the summed per-job wall.
func (r *runner) facadePass(cache *dctcpplus.SweepCache, resume bool) (wall, sweepOverhead float64, err error) {
	runtime.GC()
	start := time.Now()
	if r.w.kind == kindSweep {
		pts := make([]dctcpplus.SweepPoint, len(r.order))
		for k, i := range r.order {
			pts[k] = r.w.points[i].sweep
		}
		runner := dctcpplus.SweepRunner{Workers: 1, Cache: cache, Resume: resume, CodeVersion: "perfbench"}
		oc, err := runner.RunPoints(context.Background(), r.w.name, pts)
		if err != nil {
			return 0, 0, fmt.Errorf("sweep: %w", err)
		}
		wall = time.Since(start).Seconds()
		var jobNs int64
		for k, i := range r.order {
			r.see(i, fromSweep(oc.Results[k]), false)
			jobNs += oc.JobWallNs[k]
		}
		fmt.Fprintf(r.log, "pass facade %.3fs (%d cache hits)\n", wall, oc.Hits)
		return wall, wall - float64(jobNs)/1e9, nil
	}
	for _, i := range r.order {
		p := r.w.points[i]
		switch r.w.kind {
		case kindIncast:
			res := dctcpplus.RunIncast(p.incast)
			r.see(i, fromIncast(res), false)
			if c := &r.checks[i]; c.violations == nil {
				for _, v := range res.OracleViolations {
					c.violations = append(c.violations, v.String())
				}
			}
		case kindBackground:
			r.see(i, fromBackground(dctcpplus.RunBackgroundIncast(p.bg)), false)
		default:
			r.see(i, fromBenchmark(dctcpplus.RunBenchmark(p.bench)), false)
		}
	}
	wall = time.Since(start).Seconds()
	fmt.Fprintf(r.log, "pass facade %.3fs\n", wall)
	return wall, 0, nil
}

// rebuildPass runs every point from the layer constructors. It returns
// the summed layer numbers, the per-point ones and the wall time.
func (r *runner) rebuildPass(m mode) (layers, []layers, float64) {
	runtime.GC()
	var sum layers
	per := make([]layers, len(r.w.points))
	start := time.Now()
	for _, i := range r.order {
		out, l := rebuild(r.w, r.w.points[i], m)
		per[i] = l
		sum.add(l)
		if !m.noOracle {
			r.see(i, out, true)
			if !m.traced {
				r.checks[i].events = l.Events
			}
		}
	}
	wall := time.Since(start).Seconds()
	fmt.Fprintf(r.log, "pass rebuild%+v %.3fs\n", m, wall)
	return sum, per, wall
}

// replay fills a fresh sweep cache with one facade pass, then times a
// second pass served from it. Its results join the facade's checks.
func (r *runner) replay(dir string) (float64, error) {
	cache, err := dctcpplus.OpenSweepCache(dir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if _, _, err := r.facadePass(cache, false); err != nil {
		return 0, err
	}
	wall, _, err := r.facadePass(cache, true)
	return wall, err
}

// see records one outcome of point i from the facade or the rebuild.
func (r *runner) see(i int, out outcome, rebuilt bool) {
	r.checks[i].see(out, rebuilt, r.w.wantDone(r.w.points[i]))
}

// pointCheck accumulates every check on one point across passes.
type pointCheck struct {
	facade, rebuilt string // first outcome seen from each path
	done            int
	events          uint64   // from the plain rebuild
	violations      []string // the facade's oracle report, when it has one
	verdict
}

// verdict is why a point failed, if it did.
type verdict struct {
	truncated        bool // fewer rounds or transfers than requested within the budget
	violated         bool // the conformance oracle reported violations
	implausible      bool // goodput outside (0, line rate] or a non-positive FCT
	nondeterministic bool // two runs of one path differ
	mismatched       bool // the rebuild differs from the facade
}

func (v verdict) failed() bool {
	return v.truncated || v.violated || v.implausible || v.nondeterministic || v.mismatched
}

// invalid reports a failure that means the measurement itself cannot be
// trusted, as opposed to a defect the program shows every time.
func (v verdict) invalid() bool { return v.implausible || v.nondeterministic || v.mismatched }

func (v verdict) String() string {
	if !v.failed() {
		return "ok"
	}
	var why []string
	for _, f := range []struct {
		on   bool
		name string
	}{{v.truncated, "truncated"}, {v.violated, "oracle-violations"}, {v.implausible, "implausible"},
		{v.nondeterministic, "nondeterministic"}, {v.mismatched, "traced-mismatch"}} {
		if f.on {
			why = append(why, f.name)
		}
	}
	return "FAILED(" + strings.Join(why, ",") + ")"
}

// lineRateMbps bounds any goodput the default testbed can carry.
const lineRateMbps = 1000

func (c *pointCheck) see(out outcome, rebuilt bool, want int) {
	fp := out.fingerprint()
	ref := &c.facade
	if rebuilt {
		ref = &c.rebuilt
	}
	switch {
	case *ref == "":
		*ref = fp
	case *ref != fp:
		c.nondeterministic = true
	}
	if c.facade != "" && c.rebuilt != "" && c.facade != c.rebuilt {
		c.mismatched = true
	}
	c.done = out.Done
	c.truncated = c.truncated || out.Done < want
	c.violated = c.violated || out.Violations > 0
	bad := func(s float64) bool { return math.IsNaN(s) || s <= 0 }
	if out.Done > 0 && (bad(out.FCT.Mean) || out.Goodput.Count > 0 &&
		(bad(out.Goodput.Mean) || out.Goodput.Max > lineRateMbps)) {
		c.implausible = true
	}
}

// median returns the middle of v, or 0 for an empty v (a metric that the
// workload does not exercise).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set from /proc, falling back
// to the Go runtime's mapped total where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// machineRecord names the build and the machine a result comes from.
func machineRecord() string {
	rec := struct {
		Git        string `json:"git_describe"`
		NProc      int    `json:"nproc"`
		CPU        string `json:"cpu"`
		Go         string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	}{gitDescribe(), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0)}
	b, _ := json.Marshal(rec) // plain strings and ints cannot fail to encode
	return string(b)
}

// gitDescribe describes the checkout, without looking above it for a
// repository; a checkout that is not a git repository reads "unknown".
func gitDescribe() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
