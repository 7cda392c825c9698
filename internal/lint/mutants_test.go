package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mutant is one seeded bug: text edits to one simulator file and the exact
// per-analyzer finding count the suite must report on the mutated module.
type mutant struct {
	name  string
	file  string      // module-relative path of the edited file
	edits [][2]string // old -> new; each old text must occur exactly once
	want  map[string]int
}

// mutants is the corpus simlint is scored against. The first four are real
// bugs this repository has shipped or nearly shipped (a 32-bit Welford
// count that wrapped at sweep scale, narrowed hot-path counters, and a
// queue sampler that re-armed its scheduler handle without clearing it
// first); the rest probe one analyzer each at the sites where two layers
// used to overlap. Bugs only a run can show (go-back-N rewind, DCTCP+
// anchoring, delayed-ACK x CE, Karn) live in the packages' own
// failing-before regression tests, not here.
var mutants = []mutant{
	// Real bugs.
	{
		name:  "welford-narrow",
		file:  "internal/stats/stats.go",
		edits: [][2]string{{"type Welford struct {\n\tn    int64", "type Welford struct {\n\tn    int32"}, {"func (w *Welford) N() int64 { return w.n }", "func (w *Welford) N() int64 { return int64(w.n) }"}},
		want:  map[string]int{"overflow": 1},
	},
	{
		name:  "dupacks-narrow",
		file:  "internal/tcp/sender.go",
		edits: [][2]string{{"dupacks int64", "dupacks int32"}, {"s.dupacks >= int64(s.cfg.DupThresh)", "s.dupacks >= int32(s.cfg.DupThresh)"}},
		want:  map[string]int{"overflow": 1},
	},
	{
		name:  "hops-narrow",
		file:  "internal/packet/packet.go",
		edits: [][2]string{{"hops int64", "hops int32"}, {"\tp.hops++\n\treturn p.hops", "\tp.hops++\n\treturn int64(p.hops)"}, {"Hops() int64 { return p.hops }", "Hops() int64 { return int64(p.hops) }"}},
		want:  map[string]int{"overflow": 1},
	},
	{
		name:  "sampler-rearm",
		file:  "internal/trace/trace.go",
		edits: [][2]string{{"\tq.ev = nil\n\tif !q.running {", "\tif !q.running {"}},
		want:  map[string]int{"handlestate": 1},
	},

	// Determinism probes.
	{
		name:  "port-wallclock",
		file:  "internal/netsim/port.go",
		edits: [][2]string{{"import (\n", "import (\n\t\"time\"\n\n"}, {"\tsize := pkt.Size()\n\tif p.qBytes+size", "\tsize := pkt.Size()\n\tp.vqLastAt = sim.Time(time.Now().UnixNano())\n\tif p.qBytes+size"}},
		want:  map[string]int{"nondeterminism": 1},
	},
	{
		name:  "host-go",
		file:  "internal/netsim/host.go",
		edits: [][2]string{{"\t\tfh.Deliver(pkt)\n", "\t\tgo func() { fh.Deliver(pkt) }()\n"}},
		want:  map[string]int{"nondeterminism": 1, "hotalloc": 1},
	},
	{
		name: "host-maprange",
		file: "internal/netsim/host.go",
		edits: [][2]string{{
			"\t} else if fh, ok := h.flows[pkt.Flow]; ok {\n\t\tfh.Deliver(pkt)\n\t} else if",
			"\t} else if _, ok := h.flows[pkt.Flow]; ok {\n\t\tfor id, fh := range h.flows {\n\t\t\tif id == pkt.Flow {\n\t\t\t\tfh.Deliver(pkt)\n\t\t\t}\n\t\t}\n\t} else if",
		}},
		want: map[string]int{"nondeterminism": 1},
	},
	{
		// cmd/ may read the wall clock for run metadata, but not on a hot path.
		name:  "cmd-hot-wallclock",
		file:  "cmd/incast/main.go",
		edits: [][2]string{{"\nfunc main() {", "\n//hot:path\nfunc stamp() int64 { return time.Now().UnixNano() }\n\nfunc main() {"}},
		want:  map[string]int{"nondeterminism": 1},
	},

	// Unit probes.
	{
		name:  "unit-named-binary",
		file:  "internal/oracle/conservation.go",
		edits: [][2]string{{"injectedPkts += s.EnqueuedPkts\n", "injectedPkts += s.EnqueuedPkts + s.EnqueuedBytes\n"}},
		want:  map[string]int{"unitflow": 1},
	},
	{
		name:  "unit-named-opassign",
		file:  "internal/oracle/conservation.go",
		edits: [][2]string{{"injectedBytes += s.EnqueuedBytes\n", "injectedBytes += s.EnqueuedPkts\n"}},
		want:  map[string]int{"unitflow": 1},
	},
	{
		name:  "unit-neutral-local",
		file:  "internal/oracle/conservation.go",
		edits: [][2]string{{"\t\tdeliveredPkts += h.DeliveredPkts()\n", "\t\tn := h.DeliveredBytes()\n\t\tdeliveredPkts += n\n"}},
		want:  map[string]int{"unitflow": 1},
	},
	{
		name:  "unit-swap-fields",
		file:  "internal/netsim/port.go",
		edits: [][2]string{{"p.stats.DroppedBytes += int64(size)", "p.stats.DroppedPkts += int64(size)"}},
		want:  map[string]int{"unitflow": 1},
	},

	// Range probes.
	{
		name: "nodrop-guard-nocheck",
		file: "internal/netsim/port.go",
		edits: [][2]string{
			{"\tif p.qBytes+size > p.cfg.BufferBytes {", "\tif false {"},
			{"\tcheck.AtMost(\"netsim.port queue bytes\", int64(p.qBytes), int64(p.cfg.BufferBytes))\n", ""},
		},
		want: map[string]int{"rangeproof": 1},
	},
	{
		name:  "alpha-noclamp-nocheck",
		file:  "internal/dctcp/dctcp.go",
		edits: [][2]string{{"\t\tcheck.Unit(\"dctcp.alpha\", d.alpha)\n", ""}, {"\t\"dctcpplus/internal/check\"\n", ""}},
		want:  map[string]int{"rangeproof": 2},
	},
	{
		name:  "alpha-check-weak",
		file:  "internal/dctcp/dctcp.go",
		edits: [][2]string{{"check.Unit(\"dctcp.alpha\", d.alpha)", "check.AtLeast(\"dctcp.alpha\", d.alpha, -1)"}},
		want:  map[string]int{"rangeproof": 2},
	},
	{
		name:  "clamp-nomin",
		file:  "internal/tcp/sender.go",
		edits: [][2]string{{"\tif w < s.cfg.MinCwnd {\n\t\treturn s.cfg.MinCwnd\n\t}\n", ""}},
		want:  map[string]int{"rangeproof": 1},
	},

	// Other layers.
	{
		name:  "port-append",
		file:  "internal/netsim/port.go",
		edits: [][2]string{{"\tstats PortStats\n", "\tstats PortStats\n\tseen  []int\n"}, {"\tp.qBytes += size\n", "\tp.qBytes += size\n\tp.seen = append(p.seen, p.qBytes)\n"}},
		want:  map[string]int{"hotalloc": 1},
	},
	{
		name:  "port-double-put",
		file:  "internal/netsim/port.go",
		edits: [][2]string{{"\t\tp.pool.Put(pkt)\n\t\treturn\n", "\t\tp.pool.Put(pkt)\n\t\tp.pool.Put(pkt)\n\t\treturn\n"}},
		want:  map[string]int{"poollife": 1},
	},
	{
		name:  "host-leak",
		file:  "internal/netsim/host.go",
		edits: [][2]string{{"\th.pool.Put(pkt)\n}", "}"}},
		want:  map[string]int{"poollife": 1},
	},
	{
		name:  "enqueue-unannotated",
		file:  "internal/netsim/port.go",
		edits: [][2]string{{"// transmission.\n//\n// state: xfer pkt\n", "// transmission.\n"}},
		want:  map[string]int{"ownxfer": 2, "poollife": 2},
	},
}

// TestMutantCorpus applies each mutant to a private copy of the simulator
// packages and requires the suite to report exactly the expected findings
// per analyzer: a mutant no analyzer catches, or an analyzer whose score
// drifts, fails the test. The lint packages themselves are left out of the
// copy; they are not simulator code and would double the load time.
func TestMutantCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("one full type-check per mutant is not short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	src := simulatorSources(t, root)
	for _, m := range mutants {
		if _, ok := src[m.file]; !ok {
			t.Errorf("%s: no simulator file %s", m.name, m.file)
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			if len(m.want) == 0 {
				t.Fatal("mutant caught by no analyzer")
			}
			dir := t.TempDir()
			for rel, data := range src {
				if rel == m.file {
					data = applyMutantEdits(t, m, data)
				}
				path := filepath.Join(dir, rel)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			loader, err := NewLoader(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := loader.Load("./...")
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(pkgs, All())
			got := map[string]int{}
			for _, d := range diags {
				got[d.Analyzer]++
			}
			if score(got) != score(m.want) {
				var b strings.Builder
				for _, d := range diags {
					d.File, _ = filepath.Rel(dir, d.File)
					fmt.Fprintf(&b, "\n  %s", d)
				}
				t.Errorf("score = %s, want %s; findings:%s", score(got), score(m.want), b.String())
			}
		})
	}
}

// simulatorSources reads go.mod and every non-test Go file of the module's
// packages except internal/lint and cmd/simlint, keyed by module-relative
// path. Hidden, underscore and testdata directories are skipped, as
// "./..." skips them.
func simulatorSources(t *testing.T, root string) map[string][]byte {
	t.Helper()
	src := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || rel == "internal/lint" || rel == "cmd/simlint") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		src[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// applyMutantEdits applies m's edits to data, failing when an old text does
// not occur exactly once — so the corpus cannot silently rot as the code
// it mutates moves on.
func applyMutantEdits(t *testing.T, m mutant, data []byte) []byte {
	t.Helper()
	s := string(data)
	for _, e := range m.edits {
		if n := strings.Count(s, e[0]); n != 1 {
			t.Fatalf("%s: %q occurs %d times, want exactly 1", m.file, e[0], n)
		}
		s = strings.Replace(s, e[0], e[1], 1)
	}
	return []byte(s)
}

// score renders per-analyzer counts in a stable order.
func score(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, counts[name])
	}
	return strings.Join(parts, " ")
}
