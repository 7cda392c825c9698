package exp

import (
	"fmt"
	"strings"
	"testing"
)

// tinyScale keeps figure tests quick.
func tinyScale() Scale { return Scale{Rounds: 6, Warmup: 2, Seed: 1} }

func TestFigure1RunAndRender(t *testing.T) {
	f := NewFigure1(tinyScale())
	f.FlowCounts = []int{4, 8}
	f.Run()
	if len(f.Results) != 4 { // 2 protocols x 2 points
		t.Fatalf("results = %d", len(f.Results))
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "dctcp") || !strings.Contains(sb.String(), "tcp") {
		t.Error("render missing protocols")
	}
}

func TestFigure2Table1RunAndRender(t *testing.T) {
	f := NewFigure2Table1(tinyScale())
	f.FlowCounts = []int{8}
	f.Run()
	if len(f.Results) != 2 {
		t.Fatalf("results = %d", len(f.Results))
	}
	for _, r := range f.Results {
		if r.CwndHist == nil {
			t.Fatal("missing cwnd histogram")
		}
	}
	var sb strings.Builder
	f.Render(&sb)
	for _, col := range []string{"w=1", "cwndMin&ECE", "FLoss-TO"} {
		if !strings.Contains(sb.String(), col) {
			t.Errorf("render missing %q", col)
		}
	}
}

func TestFigure7VariantsConfigs(t *testing.T) {
	if p := NewFigure6(tinyScale()).Protocols; p[0] != ProtoDCTCPPlusPartial {
		t.Error("Figure 6 spec wrong")
	}
	if NewFigure8(tinyScale()).BaselineRTOMin == 0 {
		t.Error("Figure 8 spec missing RTO override")
	}
	f := NewFigure7(tinyScale())
	f.Protocols = []Protocol{ProtoDCTCPPlus}
	f.FlowCounts = []int{6}
	f.Run()
	if len(f.Results) != 1 || f.Results[0].Flows != 6 {
		t.Fatal("run shape wrong")
	}
}

func TestFigure8AppliesBaselineRTOOnlyToBaselines(t *testing.T) {
	f := NewFigure8(tinyScale())
	f.FlowCounts = []int{4}
	f.Protocols = []Protocol{ProtoDCTCPPlus, ProtoDCTCP}
	f.Run()
	// Indirect check: both complete; the semantics are covered by
	// inspecting options in Run (the DCTCP+ run keeps the 200ms default,
	// which manifests only under loss — here we simply require both rows).
	if len(f.Results) != 2 {
		t.Fatal("rows missing")
	}
}

func TestFigure9RunAndRender(t *testing.T) {
	f := NewFigure9(tinyScale())
	f.Protocols = []Protocol{ProtoDCTCP}
	f.FlowCounts = []int{8}
	f.Run()
	if len(f.Results) != 1 || len(f.Results[0].QueueSamples) == 0 {
		t.Fatal("no queue samples")
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "p99") {
		t.Error("render missing quantile columns")
	}
}

func TestFigure11_12RunAndRender(t *testing.T) {
	f := NewFigure11_12(tinyScale())
	f.Protocols = []Protocol{ProtoDCTCPPlus}
	f.FlowCounts = []int{4}
	f.Run()
	if len(f.Results) != 1 || f.Results[0].LongFlowMbps.Count == 0 {
		t.Fatal("no long-flow chunks")
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "longflow") {
		t.Error("render missing longflow column")
	}
}

func TestFigure13RunAndRender(t *testing.T) {
	f := NewFigure13(tinyScale())
	f.Queries = 15
	f.Background = 15
	f.Protocols = []Protocol{ProtoDCTCP}
	f.Run()
	if len(f.Results) != 1 || f.Results[0].Queries != 15 {
		t.Fatal("benchmark results wrong")
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "q.p99") {
		t.Error("render missing columns")
	}
}

func TestFigure14RunAndRender(t *testing.T) {
	f := NewFigure14(tinyScale())
	f.Flows = 12
	f.BytesPerFlow = 256 << 10
	f.Rounds = 3
	f.Run()
	if len(f.Result.Series) != 3 {
		t.Fatalf("series = %d", len(f.Result.Series))
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "converged at round") {
		t.Error("render missing verdict")
	}
	// Every round row carries the round's peak sampled bottleneck
	// occupancy, which must be a real queue inside the port's buffer.
	buffer := DefaultTestbed().Topo.SwitchPort.BufferBytes
	rows := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "round ") {
			continue
		}
		rows++
		var q int
		_, after, ok := strings.Cut(line, "maxQueue=")
		if !ok {
			t.Errorf("round row missing maxQueue: %q", line)
			continue
		}
		if _, err := fmt.Sscanf(after, "%d B", &q); err != nil {
			t.Errorf("round row %q: bad maxQueue: %v", line, err)
			continue
		}
		if q <= 0 || q > buffer {
			t.Errorf("round row %q: maxQueue %d outside (0, %d]", line, q, buffer)
		}
	}
	if rows != len(f.Result.Series) {
		t.Errorf("rendered %d round rows, want %d", rows, len(f.Result.Series))
	}
}
