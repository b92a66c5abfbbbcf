// Command benchjson converts `go test -bench` text output into a JSON
// benchmark artefact, so CI can upload one BENCH_<sha>.json per commit and
// the repository's performance trajectory (sim hot path ns/op, allocs,
// figure metrics) stays machine-diffable across the whole history.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -out BENCH_abc123.json
//	benchjson -in bench.txt -out bench.json
//
// With -baseline, benchjson additionally diffs the parsed benchmarks
// against a prior artefact: per-benchmark ns/op delta percentages go to
// stderr, and with -regress N the exit status is nonzero when any shared
// benchmark slowed down by more than N percent — the CI perf gate:
//
//	go test -bench . | benchjson -out BENCH_new.json -baseline BENCH_old.json -regress 25
//	benchjson -injson BENCH_new.json -baseline BENCH_old.json
//
// Non-benchmark lines (PASS, ok, build noise) are ignored; goos/goarch/pkg/
// cpu headers are captured into the artefact's environment block, and
// converting bench text also records the converting machine's CPU count as
// "nproc" there.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Metric is one "value unit" pair of a benchmark line (ns/op, B/op,
// allocs/op, or a custom ReportMetric unit).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -N GOMAXPROCS suffix, e.g. "BenchmarkFig8Delay/urban/ROBC-8".
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in (the most recent "pkg:"
	// header), so concatenated multi-package bench output stays
	// attributable.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the b.N the reported averages were measured over.
	Iterations int64 `json:"iterations"`
	// Metrics holds every reported value in line order.
	Metrics []Metric `json:"metrics"`
}

// Artifact is the JSON document benchjson emits.
type Artifact struct {
	// Env captures the goos/goarch/cpu header lines (machine-wide, so
	// identical across the concatenated packages; per-package context
	// lives in each Benchmark.Pkg).
	Env map[string]string `json:"env,omitempty"`
	// Benchmarks holds every parsed result in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	in := fs.String("in", "", "bench output file (default: stdin)")
	inJSON := fs.String("injson", "", "read an existing JSON artefact instead of bench text")
	out := fs.String("out", "", "JSON artefact path (default: stdout; with -baseline, default: none)")
	baseline := fs.String("baseline", "", "prior JSON artefact to diff against")
	regress := fs.Float64("regress", -1, "fail (exit nonzero) when any shared benchmark's ns/op grew by more than this percentage; negative = report only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected positional arguments %q", fs.Args())
	}
	if *in != "" && *inJSON != "" {
		return fmt.Errorf("-in and -injson are mutually exclusive")
	}
	if *regress >= 0 && *baseline == "" {
		return fmt.Errorf("-regress needs -baseline")
	}

	var art *Artifact
	if *inJSON != "" {
		a, err := loadArtifact(*inJSON)
		if err != nil {
			return err
		}
		art = a
	} else {
		r := stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		a, err := Parse(r)
		if err != nil {
			return err
		}
		if a.Env == nil {
			a.Env = map[string]string{}
		}
		// Benchmarks run on the converting machine, so its CPU count is
		// the one the numbers were measured on.
		a.Env["nproc"] = strconv.Itoa(runtime.NumCPU())
		art = a
	}

	if *out != "" || *baseline == "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *out == "" {
			if _, err := os.Stdout.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}

	if *baseline == "" {
		return nil
	}
	base, err := loadArtifact(*baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	diffs := Diff(base, art)
	WriteDiff(os.Stderr, diffs)
	if *regress >= 0 {
		var worst *DiffEntry
		for i := range diffs {
			d := &diffs[i]
			if d.InBoth() && d.DeltaPct() > *regress && (worst == nil || d.DeltaPct() > worst.DeltaPct()) {
				worst = d
			}
		}
		if worst != nil {
			return fmt.Errorf("%s regressed %.1f%% (threshold %.1f%%)",
				worst.Name, worst.DeltaPct(), *regress)
		}
	}
	return nil
}

// loadArtifact reads a JSON artefact produced by a prior benchjson run.
func loadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	art, err := parseArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return art, nil
}

// parseArtifact decodes artefact bytes (the -injson / -baseline input). It
// must reject — never panic on — arbitrary input: CI feeds it files that may
// be truncated uploads or not artefacts at all (fuzzed in main_fuzz_test.go).
func parseArtifact(data []byte) (*Artifact, error) {
	art := &Artifact{}
	if err := json.Unmarshal(data, art); err != nil {
		return nil, err
	}
	return art, nil
}

// DiffEntry is one benchmark's old-vs-new comparison. Zero OldNs or NewNs
// marks a benchmark present on only one side.
type DiffEntry struct {
	Name  string
	OldNs float64
	NewNs float64
}

// InBoth reports whether the benchmark has an ns/op on both sides.
func (d DiffEntry) InBoth() bool { return d.OldNs > 0 && d.NewNs > 0 }

// DeltaPct returns the ns/op change in percent (positive = slower).
func (d DiffEntry) DeltaPct() float64 {
	if !d.InBoth() {
		return 0
	}
	return (d.NewNs - d.OldNs) / d.OldNs * 100
}

// nsPerOp extracts a benchmark's primary ns/op metric (0 when absent).
func nsPerOp(b Benchmark) float64 {
	for _, m := range b.Metrics {
		if m.Unit == "ns/op" {
			return m.Value
		}
	}
	return 0
}

// stripProcs removes the trailing -N GOMAXPROCS suffix so artefacts recorded
// on machines with different core counts still line up.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// diffKey identifies a benchmark across artefacts.
func diffKey(b Benchmark) string {
	name := stripProcs(b.Name)
	if b.Pkg != "" {
		return b.Pkg + " " + name
	}
	return name
}

// Diff compares two artefacts' ns/op by benchmark name, in the new
// artefact's order, then any baseline-only benchmarks in baseline order.
func Diff(base, cur *Artifact) []DiffEntry {
	old := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		if ns := nsPerOp(b); ns > 0 {
			old[diffKey(b)] = ns
		}
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	var out []DiffEntry
	for _, b := range cur.Benchmarks {
		ns := nsPerOp(b)
		if ns <= 0 {
			continue
		}
		k := diffKey(b)
		seen[k] = true
		out = append(out, DiffEntry{Name: b.Name, OldNs: old[k], NewNs: ns})
	}
	for _, b := range base.Benchmarks {
		k := diffKey(b)
		if ns := nsPerOp(b); ns > 0 && !seen[k] {
			out = append(out, DiffEntry{Name: b.Name, OldNs: ns})
		}
	}
	return out
}

// WriteDiff renders the comparison table.
func WriteDiff(w io.Writer, diffs []DiffEntry) {
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, d := range diffs {
		switch {
		case !d.InBoth() && d.NewNs > 0:
			fmt.Fprintf(w, "%-60s %14s %14.1f %8s\n", d.Name, "-", d.NewNs, "new")
		case !d.InBoth():
			fmt.Fprintf(w, "%-60s %14.1f %14s %8s\n", d.Name, d.OldNs, "-", "gone")
		default:
			fmt.Fprintf(w, "%-60s %14.1f %14.1f %+7.1f%%\n", d.Name, d.OldNs, d.NewNs, d.DeltaPct())
		}
	}
}

// Parse reads `go test -bench` output and extracts the benchmark lines.
func Parse(r io.Reader) (*Artifact, error) {
	art := &Artifact{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "pkg:"):
			_, v, _ := strings.Cut(line, ":")
			pkg = strings.TrimSpace(v)
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			if art.Env == nil {
				art.Env = map[string]string{}
			}
			art.Env[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				b.Pkg = pkg
				art.Benchmarks = append(art.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return art, nil
}

// parseBenchLine parses "BenchmarkName-8  N  v1 u1  v2 u2 ...". Lines that
// do not follow the shape (e.g. a benchmark name echoed by -v) report false.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics = append(b.Metrics, Metric{Value: v, Unit: fields[i+1]})
	}
	return b, true
}
