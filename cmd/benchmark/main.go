// Command benchmark runs the paper's §VI-C and §VI-D experiments:
//
//   - The default mode reproduces Figure 13: query traffic (2KB fan-in
//     responses from every worker) mixed with heavy-tailed background
//     flows, comparing protocols at RTOmin = 10ms. The paper generates
//     7,000 queries and 7,000 background flows; -queries/-background set
//     the scale.
//
//   - With -incast N, it instead reproduces Figures 11 and 12: the basic
//     incast with two persistent background flows sharing the bottleneck.
//
// Examples:
//
//	benchmark -queries 1000 -background 1000
//	benchmark -queries 7000 -background 7000        # paper scale
//	benchmark -incast 20,60,120,200                 # Figs. 11/12
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	dcp "dctcpplus"
)

func main() {
	var (
		protocols  = flag.String("protocols", "dctcp+,dctcp", "comma-separated protocols")
		queries    = flag.Int("queries", 1000, "number of query transactions (paper: 7000)")
		background = flag.Int("background", 1000, "number of background flows (paper: 7000)")
		short      = flag.Int("short", 0, "number of short-message flows (50KB-1MB)")
		rtoMin     = flag.Duration("rtomin", 10*time.Millisecond, "minimum (and initial) RTO")
		maxBg      = flag.Int64("maxbg", 10<<20, "largest background flow in bytes")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		incast     = flag.String("incast", "", "run Figs. 11/12 instead: comma-separated incast flow counts")
		rounds     = flag.Int("rounds", 50, "incast mode: rounds per point")
		warmup     = flag.Int("warmup", 10, "incast mode: warmup rounds excluded")
	)
	flag.Parse()

	protoList, err := parseProtocols(*protocols)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	if *incast != "" {
		runBackgroundIncast(protoList, *incast, *rounds, *warmup, *seed)
		return
	}

	var all []dcp.BenchmarkResult
	for _, p := range protoList {
		o := dcp.DefaultBenchmarkOptions(p)
		o.RTOMin = dcp.Duration(*rtoMin)
		o.Testbed.Seed = *seed
		o.Traffic.Queries = *queries
		o.Traffic.ShortFlows = *short
		o.Traffic.BackgroundFlows = *background
		o.Traffic.BackgroundMaxBytes = *maxBg
		all = append(all, dcp.RunBenchmark(o))
	}
	fmt.Println("Figure 13: benchmark traffic FCT (ms) — queries and background flows")
	dcp.PrintBenchmarkRows(os.Stdout, all)
}

func runBackgroundIncast(protoList []dcp.Protocol, flows string, rounds, warmup int, seed uint64) {
	flowCounts, err := parseInts(flows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	f := dcp.NewFigure11_12()
	f.Scale = dcp.Scale{Rounds: rounds, Warmup: warmup, Seed: seed}
	f.Protocols = protoList
	f.FlowCounts = flowCounts
	f.ChunkBytes = 4 << 20
	f.Run()
	fmt.Println("Figures 11+12: incast with two persistent background flows")
	f.Render(os.Stdout)
}

func parseProtocols(csv string) ([]dcp.Protocol, error) {
	var out []dcp.Protocol
	for _, name := range strings.Split(csv, ",") {
		p, err := dcp.ParseProtocol(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad flow count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
