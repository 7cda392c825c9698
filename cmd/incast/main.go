// Command incast runs the paper's incast experiments (Figures 1, 6, 7, 8):
// N concurrent flows answer a barrier-synchronized aggregator through the
// bottleneck switch, and the tool reports per-point goodput, FCT and
// timeout counts.
//
// Examples:
//
//	incast -protocols dctcp,tcp -flows 1,5,10,20,35,50,80,100      # Fig. 1
//	incast -protocols dctcp+partial -flows 20,60,100,160,200       # Fig. 6
//	incast -protocols dctcp+,dctcp,tcp -flows 20,60,120,200        # Fig. 7
//	incast -protocols dctcp,tcp -rtomin 10ms -flows 20,60,120,200  # Fig. 8
//	incast -protocols dctcp+ -flows 200 -rounds 1000               # paper scale
//	incast -protocols dctcp+,dctcp -flows 150 -faults all          # resilience
//	incast -flows 200 -rounds 500 -cache-dir .sweepcache           # memoized
//
// The point grid runs through the sweep orchestrator (internal/sweep):
// -jobs bounds the worker pool, and with -cache-dir completed points are
// content-addressed on disk, so repeating or extending a run only computes
// what changed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	dcp "dctcpplus"
	"dctcpplus/internal/cliflag"
)

func main() {
	var (
		protocols = flag.String("protocols", "dctcp+,dctcp,tcp",
			"comma-separated protocols (tcp, dctcp, dctcp-min1, dctcp+, dctcp+partial, reno+)")
		flows  = flag.String("flows", "10,20,40,60,80,120,160,200", "comma-separated concurrent flow counts")
		rounds = flag.Int("rounds", 50, "request/response rounds per point (paper: 1000)")
		warmup = flag.Int("warmup", 10, "initial rounds excluded from statistics")
		total  = flag.Int64("total", 1<<20, "total bytes per round, split across flows (1MB/N each)")
		per    = flag.Int64("perflow", 0, "bytes per flow per round (overrides -total split)")
		rtoMin = flag.Duration("rtomin", 200*time.Millisecond, "minimum (and initial) RTO")
		jitter = flag.Duration("jitter", 4*time.Millisecond, "worker service jitter")
		seed   = flag.Uint64("seed", 1, "experiment seed")
		telOut = flag.String("telemetry", "",
			"write the sweep's instrument dump to this file as JSON lines")
		faults = flag.String("faults", "",
			"inject faults of these classes (comma-separated: blackout,loss,rate,delay,buffer,stall; \"all\" for every class; empty disables)")
		faultSeed = flag.Uint64("faultseed", 1, "seed of the fault-plan generator")
		jobs      = flag.Int("jobs", dcp.DefaultSweepWorkers(), "concurrent experiment points (workers)")
		cacheDir  = flag.String("cache-dir", "",
			"content-addressed result cache directory (empty disables caching)")
		resume = flag.Bool("resume", false, "continue a sweep whose manifest already exists in -cache-dir")
		oracle = flag.Bool("oracle", false,
			"run every point under the trace-conformance oracle; any violation fails the command")
		oracleTrace = flag.String("oracle-trace", "",
			"write rendered oracle violations (with minimized event windows) to this file; requires -oracle, written only on violation")
	)
	flag.Parse()

	if err := validateFlags(*rounds, *warmup, *total, *per, *rtoMin, *jitter); err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}
	if err := cliflag.ValidateSweep(*jobs, *cacheDir, *resume); err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}
	if err := cliflag.ValidateOracle(*oracle, *oracleTrace); err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}

	// Parse the fault spec eagerly so a bad class list is a usage error,
	// even though the spec string itself rides into the sweep spec.
	if _, err := parseFaultGen(*faults, *faultSeed); err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}

	var reg *dcp.Registry
	if *telOut != "" {
		reg = dcp.NewRegistry()
	}

	flowCounts, err := cliflag.PositiveInts(*flows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}

	spec := dcp.SweepSpec{
		Name:         "incast",
		Protocols:    cliflag.SplitCSV(*protocols),
		Flows:        flowCounts,
		RTOMins:      []dcp.Duration{dcp.Duration(*rtoMin)},
		Seeds:        []uint64{*seed},
		Faults:       []string{*faults},
		FaultSeed:    *faultSeed,
		Rounds:       *rounds,
		WarmupRounds: *warmup,
		TotalBytes:   *total,
		BytesPerFlow: *per,
		Jitter:       dcp.Duration(*jitter),
		Oracle:       *oracle,
	}
	runner := dcp.SweepRunner{Workers: *jobs, Resume: *resume, Telemetry: reg}
	if *cacheDir != "" {
		cache, err := dcp.OpenSweepCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "incast:", err)
			os.Exit(1)
		}
		runner.Cache = cache
	}
	out, err := runner.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(1)
	}

	all := make([]dcp.IncastResult, 0, len(out.Results))
	for _, r := range out.Results {
		row, err := r.Incast()
		if err != nil {
			fmt.Fprintln(os.Stderr, "incast:", err)
			os.Exit(1)
		}
		all = append(all, row)
	}
	dcp.PrintIncastRows(os.Stdout, all)
	if runner.Cache != nil {
		fmt.Printf("cache: %d hit, %d run -> %s\n", out.Hits, out.Misses, *cacheDir)
	}

	if reg != nil {
		f, err := os.Create(*telOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "incast:", err)
			os.Exit(1)
		}
		snap := reg.Snapshot()
		if err := snap.WriteJSONLines(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "incast:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: %d instruments -> %s\n", len(snap.Instruments), *telOut)
	}

	if *oracle {
		if total, lines := dcp.SweepOracleReport(out.Results); total > 0 {
			cliflag.FailOracle("incast", total, lines, *oracleTrace)
		}
		fmt.Printf("oracle: clean (%d points)\n", len(out.Results))
	}
}
