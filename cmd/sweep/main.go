// Command sweep runs a declarative experiment grid — protocol × flows ×
// RTOmin × seed × fault plan × topology — over a bounded worker pool, with
// content-addressed result caching and cross-seed streaming aggregation.
// Completed jobs are memoized under -cache-dir, so re-running an identical
// sweep is pure cache replay, and an interrupted sweep picks up where it
// stopped with -resume.
//
// Examples:
//
//	sweep -protocols dctcp+,dctcp -flows 40,80,160 -seeds 1,2,3
//	sweep -preset large-n -cache-dir .sweepcache      # N=100..2000 scenario
//	sweep -preset large-n -cache-dir .sweepcache -resume   # continue/replay
//	sweep -protocols dctcp+ -flows 150 -faults "none;all" -seeds 1,2,3,4
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
		name      = flag.String("name", "sweep", "sweep name (manifest identity inside the cache)")
		protocols = flag.String("protocols", "dctcp+,dctcp",
			"comma-separated protocols (tcp, dctcp, dctcp-min1, dctcp+, dctcp+partial, reno+, d2tcp, d2tcp+)")
		flows  = flag.String("flows", "40,80,160", "comma-separated concurrent flow counts")
		rtomin = flag.String("rtomin", "200ms", "comma-separated minimum-RTO values")
		seeds  = flag.String("seeds", "1", "comma-separated experiment seeds")
		topos  = flag.String("topos", "default", "comma-separated topologies (default, hull)")
		faults = flag.String("faults", "none",
			"semicolon-separated fault plans; each is \"none\", \"all\", or a comma list of classes (blackout,loss,rate,delay,buffer,stall)")
		faultSeed = flag.Uint64("faultseed", 1, "seed of the fault-plan generator")
		rounds    = flag.Int("rounds", 50, "request/response rounds per point")
		warmup    = flag.Int("warmup", 10, "initial rounds excluded from statistics")
		total     = flag.Int64("total", 1<<20, "total bytes per round, split across flows")
		per       = flag.Int64("perflow", 0, "bytes per flow per round (overrides -total split)")
		jitter    = flag.Duration("jitter", 4*time.Millisecond, "worker service jitter")
		preset    = flag.String("preset", "", "named scenario replacing the grid flags (large-n)")

		jobs     = flag.Int("jobs", dcp.DefaultSweepWorkers(), "concurrent sweep jobs (workers)")
		cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (empty disables caching)")
		resume   = flag.Bool("resume", false, "continue a sweep whose manifest already exists in -cache-dir")
		telOut   = flag.String("telemetry", "", "write the sweep's instrument dump to this file as JSON lines")
		quiet    = flag.Bool("q", false, "suppress progress lines")
		oracle   = flag.Bool("oracle", false,
			"run every job under the trace-conformance oracle; any violation fails the command")
		oracleTrace = flag.String("oracle-trace", "",
			"write rendered oracle violations (with minimized event windows) to this file; requires -oracle, written only on violation")
	)
	flag.Parse()

	if err := cliflag.ValidateSweep(*jobs, *cacheDir, *resume); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	if err := cliflag.ValidateOracle(*oracle, *oracleTrace); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	var spec dcp.SweepSpec
	switch *preset {
	case "":
		var err error
		spec, err = buildSpec(*name, *protocols, *flows, *rtomin, *seeds, *topos, *faults,
			*faultSeed, *rounds, *warmup, *total, *per, *jitter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(2)
		}
	case "large-n":
		spec = dcp.LargeNSweepSpec()
	default:
		fmt.Fprintf(os.Stderr, "sweep: -preset %s: unknown preset (want large-n)\n", *preset)
		os.Exit(2)
	}
	spec.Oracle = *oracle

	runner := dcp.SweepRunner{
		Workers:   *jobs,
		Resume:    *resume,
		Telemetry: dcp.NewRegistry(),
	}
	if !*quiet {
		runner.Progress = os.Stderr
	}
	if *cacheDir != "" {
		cache, err := dcp.OpenSweepCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		runner.Cache = cache
	}

	out, err := runner.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	if err := dcp.WriteSweepGroups(os.Stdout, out.Groups); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	fmt.Printf("\n%d jobs: %d run, %d cached (hit rate %.0f%%)",
		out.Jobs, out.Misses, out.Hits, hitRate(out)*100)
	if out.CacheErrs > 0 {
		fmt.Printf(", %d cache errors", out.CacheErrs)
	}
	fmt.Println()
	printJobTimings(out)

	if *telOut != "" {
		if err := writeTelemetry(runner.Telemetry, *telOut); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}

	if *oracle {
		if total, lines := dcp.SweepOracleReport(out.Results); total > 0 {
			cliflag.FailOracle("sweep", total, lines, *oracleTrace)
		}
		fmt.Printf("oracle: clean (%d jobs)\n", len(out.Results))
	}
}

func hitRate(out *dcp.SweepOutcome) float64 {
	if done := out.Completed(); done > 0 {
		return float64(out.Hits) / float64(done)
	}
	return 0
}

// printJobTimings summarizes per-job wall time over the jobs that actually
// executed (cache hits cost no simulation time).
func printJobTimings(out *dcp.SweepOutcome) {
	if out.Misses == 0 {
		return
	}
	var sum, max int64
	for _, ns := range out.JobWallNs {
		sum += ns
		if ns > max {
			max = ns
		}
	}
	mean := time.Duration(sum / int64(out.Misses)).Round(time.Microsecond)
	fmt.Printf("per-job wall time: mean %v, max %v (%d executed)\n",
		mean, time.Duration(max).Round(time.Microsecond), out.Misses)
}

func writeTelemetry(reg *dcp.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	if err := snap.WriteJSONLines(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("telemetry: %d instruments -> %s\n", len(snap.Instruments), path)
	return nil
}
