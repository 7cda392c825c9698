package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/workload"
)

// timedHandlers times every delivery into the tcp endpoints it wraps.
type timedHandlers struct {
	calls, ns int64
}

type timedHandler struct {
	inner func(*packet.Packet)
	acc   *timedHandlers
}

func (h *timedHandler) Deliver(pkt *packet.Packet) {
	t := time.Now()
	h.inner(pkt)
	h.acc.ns += since(t)
	h.acc.calls++
}

// wrap re-registers both endpoints of c behind timing wrappers.
func (th *timedHandlers) wrap(c *tcp.Conn, from, to *netsim.Host) {
	flow := c.Sender.Flow()
	from.Unregister(flow)
	from.Register(flow, &timedHandler{inner: c.Sender.Deliver, acc: th})
	to.Unregister(flow)
	to.Register(flow, &timedHandler{inner: c.Receiver.Deliver, acc: th})
}

// spyFactory records every sender the factory's congestion modules are
// initialised on. The spy forwards every method, and CwndCap too when the
// wrapped module has it, so the sender behaves exactly as without it.
func spyFactory(f workload.FlowFactory, senders *[]*tcp.Sender) workload.FlowFactory {
	return func(i int) (tcp.Config, tcp.CongestionControl) {
		cfg, cc := f(i)
		s := spyCC{CongestionControl: cc, senders: senders}
		if capper, ok := cc.(tcp.CwndCapper); ok {
			return cfg, spyCapCC{s, capper}
		}
		return cfg, s
	}
}

type spyCC struct {
	tcp.CongestionControl
	senders *[]*tcp.Sender
}

func (c spyCC) Init(s *tcp.Sender) {
	*c.senders = append(*c.senders, s)
	c.CongestionControl.Init(s)
}

type spyCapCC struct {
	spyCC
	capper tcp.CwndCapper
}

func (c spyCapCC) CwndCap(s *tcp.Sender) (float64, bool) { return c.capper.CwndCap(s) }

// cpuFold is a CPU profile's self time folded by layer.
type cpuFold struct {
	total   float64
	layer   map[string]float64 // self time per layer name (see layerPackages)
	mapNet  float64            // map-access self time called from netsim
	gc      float64            // samples under the garbage collector
	samples int
}

// share returns v as a fraction of the profile's total.
func (f cpuFold) share(v float64) float64 {
	if f.total == 0 {
		return 0
	}
	return v / f.total
}

// layerPackages maps the repository's import paths to layer names.
var layerPackages = map[string]string{
	"dctcpplus/internal/sim":      "sim",
	"dctcpplus/internal/netsim":   "netsim",
	"dctcpplus/internal/packet":   "packet",
	"dctcpplus/internal/tcp":      "tcp",
	"dctcpplus/internal/dctcp":    "cc",
	"dctcpplus/internal/core":     "cc",
	"dctcpplus/internal/d2tcp":    "cc",
	"dctcpplus/internal/oracle":   "oracle",
	"dctcpplus/internal/fault":    "fault",
	"dctcpplus/internal/workload": "workload",
}

// pkgOf returns the import path of a symbolized Go function name such as
// "dctcpplus/internal/sim.(*Scheduler).down" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/")
}

// isMapFunc reports whether fn is part of the runtime's map implementation.
func isMapFunc(fn string) bool {
	return strings.HasPrefix(fn, "internal/runtime/maps.") ||
		strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "runtime.evacuate")
}

// gcEntryPoints are the runtime functions through which the garbage
// collector runs; a sample with one on its stack is GC time.
var gcEntryPoints = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain"}

func isGCFunc(fn string) bool {
	for _, p := range gcEntryPoints {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfiles folds CPU profiles with the local toolchain's pprof: one
// stack per sample from -traces, self time charged to the leaf frame's
// layer.
func foldProfiles(files []string) (cpuFold, error) {
	args := append([]string{"tool", "pprof", "-traces"}, files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuFold{}, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` text: blocks separated by dashed
// lines, each starting with the sample value and leaf function, followed
// by one caller per line.
func parseTraces(text []byte) (cpuFold, error) {
	f := cpuFold{layer: map[string]float64{}}
	var stack []string
	var value float64
	flush := func() {
		if len(stack) == 0 {
			return
		}
		f.samples++
		f.total += value
		leafPkg := pkgOf(stack[0])
		if l, ok := layerPackages[leafPkg]; ok {
			f.layer[l] += value
		}
		if isMapFunc(stack[0]) {
			for _, fn := range stack[1:] {
				if p := pkgOf(fn); !isRuntime(p) {
					if layerPackages[p] == "netsim" {
						f.mapNet += value
					}
					break
				}
			}
		}
		for _, fn := range stack {
			if isGCFunc(fn) {
				f.gc += value
				break
			}
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			// First line of a block: "<value><unit>   <leaf function>".
			v, err := parseDurationValue(fields[0])
			if err != nil {
				return f, fmt.Errorf("pprof -traces: %q: %w", line, err)
			}
			value = v
			stack = append(stack, strings.Join(fields[1:], " "))
			continue
		}
		stack = append(stack, strings.Join(fields, " "))
	}
	flush()
	if err := sc.Err(); err != nil {
		return f, err
	}
	if f.samples == 0 {
		return f, fmt.Errorf("pprof -traces: no samples")
	}
	return f, nil
}

// parseDurationValue parses a pprof sample value such as "10ms" or "1.5s"
// into nanoseconds.
func parseDurationValue(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.ns, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
