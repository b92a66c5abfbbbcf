package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const sampleBench = `
goos: linux
goarch: amd64
pkg: mlorass
cpu: Intel Xeon
BenchmarkFig8Delay/urban/NoRouting-8         	      12	  95012345 ns/op	       102.3 delay-s	  524288 B/op	    1024 allocs/op
BenchmarkHistogramAdd-8                      	500000000	         2.104 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	mlorass	12.345s
`

func TestParse(t *testing.T) {
	art, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if art.Env["goos"] != "linux" || art.Env["cpu"] != "Intel Xeon" {
		t.Fatalf("env = %v", art.Env)
	}
	if len(art.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(art.Benchmarks))
	}
	b := art.Benchmarks[0]
	if b.Name != "BenchmarkFig8Delay/urban/NoRouting-8" || b.Iterations != 12 || b.Pkg != "mlorass" {
		t.Fatalf("bench[0] = %+v", b)
	}
	wantUnits := []string{"ns/op", "delay-s", "B/op", "allocs/op"}
	if len(b.Metrics) != len(wantUnits) {
		t.Fatalf("metrics = %+v", b.Metrics)
	}
	for i, u := range wantUnits {
		if b.Metrics[i].Unit != u {
			t.Fatalf("metric %d unit = %q, want %q", i, b.Metrics[i].Unit, u)
		}
	}
	if b.Metrics[1].Value != 102.3 {
		t.Fatalf("delay-s = %v", b.Metrics[1].Value)
	}
	if art.Benchmarks[1].Metrics[0].Value != 2.104 {
		t.Fatalf("ns/op = %v", art.Benchmarks[1].Metrics[0].Value)
	}
}

// TestParseMultiPackage covers the CI shape: two packages' outputs
// concatenated — each benchmark keeps its own package.
func TestParseMultiPackage(t *testing.T) {
	input := sampleBench + `
pkg: mlorass/internal/telemetry
BenchmarkRecorderHotPath-8	300000000	         4.2 ns/op
`
	art, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(art.Benchmarks))
	}
	if art.Benchmarks[1].Pkg != "mlorass" {
		t.Fatalf("bench[1].Pkg = %q, want mlorass", art.Benchmarks[1].Pkg)
	}
	if art.Benchmarks[2].Pkg != "mlorass/internal/telemetry" {
		t.Fatalf("bench[2].Pkg = %q", art.Benchmarks[2].Pkg)
	}
	if _, ok := art.Env["pkg"]; ok {
		t.Fatal("pkg leaked into the machine-wide env block")
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	art, err := Parse(strings.NewReader("?   \tmlorass/cmd\t[no test files]\nFAIL\nBenchmarkBroken no numbers here at all\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 0 {
		t.Fatalf("noise parsed as benchmarks: %+v", art.Benchmarks)
	}
}

// TestDiff covers the artefact comparison: shared benchmarks get ns/op
// deltas, one-sided benchmarks are reported as new/gone, and package
// qualification keeps same-named benchmarks apart.
func TestDiff(t *testing.T) {
	base := &Artifact{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", Pkg: "p1", Metrics: []Metric{{Value: 200, Unit: "ns/op"}}},
		{Name: "BenchmarkGone-8", Pkg: "p1", Metrics: []Metric{{Value: 50, Unit: "ns/op"}}},
		{Name: "BenchmarkA-8", Pkg: "p2", Metrics: []Metric{{Value: 1000, Unit: "ns/op"}}},
	}}
	cur := &Artifact{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", Pkg: "p1", Metrics: []Metric{{Value: 100, Unit: "ns/op"}}},
		{Name: "BenchmarkA-8", Pkg: "p2", Metrics: []Metric{{Value: 1500, Unit: "ns/op"}}},
		{Name: "BenchmarkNew-8", Pkg: "p1", Metrics: []Metric{{Value: 10, Unit: "ns/op"}}},
	}}
	diffs := Diff(base, cur)
	if len(diffs) != 4 {
		t.Fatalf("diff entries = %d, want 4: %+v", len(diffs), diffs)
	}
	if d := diffs[0]; !d.InBoth() || d.DeltaPct() != -50 {
		t.Fatalf("p1/BenchmarkA = %+v, want -50%%", d)
	}
	if d := diffs[1]; !d.InBoth() || d.DeltaPct() != 50 {
		t.Fatalf("p2/BenchmarkA = %+v, want +50%%", d)
	}
	if d := diffs[2]; d.InBoth() || d.NewNs != 10 {
		t.Fatalf("BenchmarkNew = %+v, want new-only", d)
	}
	if d := diffs[3]; d.InBoth() || d.OldNs != 50 {
		t.Fatalf("BenchmarkGone = %+v, want baseline-only", d)
	}
}

// TestRunRegressGate covers the CLI perf gate end to end: a baseline diff
// within threshold passes, a regression beyond it fails, and one-sided
// benchmarks never trip the gate.
func TestRunRegressGate(t *testing.T) {
	dir := t.TempDir()
	writeArtifact := func(name string, ns float64) string {
		path := dir + "/" + name
		art := &Artifact{Benchmarks: []Benchmark{
			{Name: "BenchmarkHot-8", Iterations: 1, Metrics: []Metric{{Value: ns, Unit: "ns/op"}}},
			{Name: "BenchmarkOnly" + name + "-8", Iterations: 1, Metrics: []Metric{{Value: 5, Unit: "ns/op"}}},
		}}
		data, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := writeArtifact("old.json", 100)
	slowPath := writeArtifact("slow.json", 140)
	okPath := writeArtifact("ok.json", 110)

	if err := run([]string{"-injson", okPath, "-baseline", oldPath, "-regress", "25"}, strings.NewReader("")); err != nil {
		t.Fatalf("10%% regression tripped a 25%% gate: %v", err)
	}
	err := run([]string{"-injson", slowPath, "-baseline", oldPath, "-regress", "25"}, strings.NewReader(""))
	if err == nil {
		t.Fatal("40% regression passed a 25% gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkHot-8") {
		t.Fatalf("gate error %q does not name the regressed benchmark", err)
	}
	// Report-only mode (no -regress) never fails.
	if err := run([]string{"-injson", slowPath, "-baseline", oldPath}, strings.NewReader("")); err != nil {
		t.Fatalf("report-only diff failed: %v", err)
	}
	// Text input combines with the gate: parse, write artefact, diff.
	outPath := dir + "/out.json"
	if err := run([]string{"-out", outPath, "-baseline", oldPath, "-regress", "25"},
		strings.NewReader("BenchmarkHot-8 10 105 ns/op\n")); err != nil {
		t.Fatalf("text-input gate run failed: %v", err)
	}
	art, err := loadArtifact(outPath)
	if err != nil {
		t.Fatalf("artefact not written in gate mode: %v", err)
	}
	// Converted bench text records the CPU count it was measured on.
	if art.Env["nproc"] != strconv.Itoa(runtime.NumCPU()) {
		t.Fatalf("converted artefact env = %v, want nproc %d", art.Env, runtime.NumCPU())
	}
	if err := run([]string{"-regress", "25"}, strings.NewReader("")); err == nil {
		t.Fatal("-regress without -baseline accepted")
	}
}
