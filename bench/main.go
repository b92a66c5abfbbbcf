// Command bench is the repository benchmark: four same-machine workloads
// measured end to end with tracing off, plus a traced run that attributes
// each workload's time to the simulator's layers. See README.md here.
//
//	bash bench/run.sh [-w NAME]... [-seed N] [-runs N] [-seconds S] [-trace]
//
// Each measured op is a fresh child process (the harness re-executes
// itself), so set-up time, CPU time and peak RSS are the op's own.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"mlorass/internal/experiment"
)

// childEnv carries a child process's opSpec as JSON.
const childEnv = "MLORASS_BENCH_OP"

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		if err := childMain(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench op:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// opResult is what a child reports for its op; the parent adds the
// process's peak RSS from its rusage.
type opResult struct {
	WallS     float64            `json:"wall_s"`
	SetupS    float64            `json:"setup_s"`
	SimS      float64            `json:"sim_s"`
	Cells     int                `json:"cells"`
	Failed    int                `json:"failed"`
	Reference string             `json:"reference"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	CPUS      float64            `json:"cpu_s"`
	// ProbeS times the host-speed probe just before and just after the op.
	ProbeS     [2]float64 `json:"probe_s"`
	PeakRSSMiB float64    `json:"peak_rss_mib"`
}

func childMain(specJSON string, stdout io.Writer) error {
	var spec opSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("op spec: %w", err)
	}
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	res, err := measure(w, spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measure runs one op and checks its outputs; a traced op also profiles
// the CPU and derives the per-layer metrics.
func measure(w workload, spec opSpec) (*opResult, error) {
	in := newInstruments(spec.Traced)
	var (
		prof       bytes.Buffer
		mem0, mem1 runtime.MemStats
		ru0, ru1   syscall.Rusage
	)
	probe0 := probe()
	if spec.Traced {
		runtime.ReadMemStats(&mem0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	run, err := w.run(spec, in)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	if spec.Traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&mem1)
	}
	if err != nil {
		return nil, err
	}
	// Finish the op's garbage collection first, so that no leftover
	// collector work of the op slows the probe.
	runtime.GC()
	probe1 := probe()
	if in.live.at.IsZero() {
		return nil, errors.New("no recorder was attached, so set-up has no end")
	}

	t := &run.tally
	want := 1
	if w.refGroup == "sweep" {
		want = len(experiment.GatewaySweep()) * len(experiment.Schemes()) * spec.Scale.Reps
	}
	if t.cells != want {
		t.fail(want-t.cells, fmt.Errorf("%d of %d cells produced a result", t.cells, want))
	}
	res := &opResult{
		WallS:     run.end.Sub(run.start).Seconds(),
		SetupS:    in.live.at.Sub(run.start).Seconds(),
		SimS:      t.simS,
		Cells:     want,
		Reference: "invariants only",
		CPUS:      rusageSeconds(&ru1) - rusageSeconds(&ru0),
		ProbeS:    [2]float64{probe0.Seconds(), probe1.Seconds()},
	}
	if spec.Scale == fullScale {
		checked, err := checkReference(w.refGroup, spec.Seed, t.out)
		if err != nil {
			t.fail(1, err)
		}
		if checked {
			res.Reference = "checked"
		}
	}
	res.Failed, res.Errors = t.failed, t.errs
	if spec.Traced {
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.Layers = layerValues(run, in, p, &mem0, &mem1, res.CPUS)
	}
	return res, nil
}

func rusageSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// options are the harness's command-line settings.
type options struct {
	workloads []string
	seed      uint64
	runs      int
	seconds   float64
	trace     bool
}

// listFlag collects a repeatable flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func parseArgs(args []string, stderr io.Writer) (options, error) {
	o := options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names listFlag
	fs.Var(&names, "w", "workload to run (repeatable; default all): day, day-tiles, sweep, farm-tcp")
	fs.Var(&names, "workload", "same as -w")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every op's inputs derive from")
	fs.IntVar(&o.runs, "runs", 3, "minimum measured ops per workload")
	fs.Float64Var(&o.seconds, "seconds", 25, "keep starting ops while the next is expected to end within this many seconds of the workload's start")
	fs.BoolVar(&o.trace, "trace", false, "pair every measured op with a traced op and report per-layer metrics")
	// "--trace 0" and "--trace 1" name the value in the next argument,
	// which a boolean flag would otherwise leave as a positional one.
	var norm []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		norm = append(norm, a)
	}
	if err := fs.Parse(norm); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.runs < 1 {
		return o, fmt.Errorf("-runs %d must be at least 1", o.runs)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("-seconds %v must not be negative", o.seconds)
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			return o, fmt.Errorf("unknown workload %q", n)
		}
	}
	o.workloads = names
	return o, nil
}

func benchMain(args []string, stdout, stderr io.Writer) error {
	o, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	r := &runner{exe: exe, workDir: filepath.Join(".bench_build", "work"), scale: fullScale, stdout: stdout, stderr: stderr}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return err
	}
	var last *workloadResult
	for _, name := range o.workloads {
		w, _ := workloadByName(name)
		if last, err = r.runWorkload(w, o); err != nil {
			return err
		}
		if err := writeJSON(stdout, last.summary(o.trace)); err != nil {
			return err
		}
	}
	if len(o.workloads) == 1 {
		return writeJSON(stdout, last.result(o.trace))
	}
	return nil
}

// runner executes ops as child processes.
type runner struct {
	exe     string
	workDir string
	scale   scale
	stdout  io.Writer
	stderr  io.Writer
}

// workloadResult holds one workload's ops.
type workloadResult struct {
	w                workload
	untraced, traced []*opResult
}

// runWorkload runs ops in a closed loop: at least o.runs of them, then more
// while the next one is expected to finish within o.seconds. Op i's inputs
// derive from the seed via experiment.RepSeed, so op 0 uses the seed itself.
func (r *runner) runWorkload(w workload, o options) (*workloadResult, error) {
	wr := &workloadResult{w: w}
	start := time.Now()
	var last time.Duration
	for i := 0; i < o.runs || time.Since(start)+last <= time.Duration(o.seconds*float64(time.Second)); i++ {
		began := time.Now()
		spec := opSpec{Workload: w.name, Seed: experiment.RepSeed(o.seed, i), Scale: r.scale, WorkDir: r.workDir}
		res, err := r.runOp(spec, i)
		if err != nil {
			return nil, err
		}
		wr.untraced = append(wr.untraced, res)
		if o.trace {
			spec.Traced = true
			res, err := r.runOp(spec, i)
			if err != nil {
				return nil, err
			}
			wr.traced = append(wr.traced, res)
		}
		last = time.Since(began)
	}
	return wr, nil
}

// runOp runs one op in a fresh child process and prints its line.
func (r *runner) runOp(spec opSpec, i int) (*opResult, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = r.stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s op %d (seed %d): %w", spec.Workload, i, spec.Seed, err)
	}
	var res opResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s op %d: reading its result: %w", spec.Workload, i, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	line := opLine{Workload: spec.Workload, Op: i, Seed: spec.Seed, Traced: spec.Traced,
		Ops: res.Cells, Failed: res.Failed, Reference: res.Reference, Errors: res.Errors,
		ProbeS: res.ProbeS, Raw: map[string]float64{"wall_s": res.WallS, "setup_s": res.SetupS, "cpu_s": res.CPUS}}
	if spec.Traced {
		line.Metrics = withUnits(res.Layers, perLayer)
	} else {
		line.Metrics = withUnits(endToEndValues(&res), endToEnd)
	}
	kind := "measured"
	if spec.Traced {
		kind = "traced"
	}
	fmt.Fprintf(r.stderr, "bench: %s op %d (%s, seed %d): wall %.3f s, setup %.4f s, %d/%d ops failed, %s\n",
		spec.Workload, i, kind, spec.Seed, res.WallS, res.SetupS, res.Failed, res.Cells, res.Reference)
	return &res, writeJSON(r.stdout, line)
}

// valueUnit is one reported number.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(vals map[string]float64, defs []metricDef) map[string]valueUnit {
	out := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			out[d.Name] = valueUnit{v, d.Unit}
		}
	}
	return out
}

// opLine is the JSON line printed for every op.
type opLine struct {
	Workload  string               `json:"workload"`
	Op        int                  `json:"op"`
	Seed      uint64               `json:"seed"`
	Traced    bool                 `json:"traced"`
	Ops       int                  `json:"ops"`
	Failed    int                  `json:"failed"`
	Reference string               `json:"reference"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]valueUnit `json:"metrics"`
	// ProbeS and Raw are the host-speed probe times and the op's measured
	// times before normalisation.
	ProbeS [2]float64         `json:"probe_s"`
	Raw    map[string]float64 `json:"raw"`
}

// stat summarises one metric over a workload's ops.
type stat struct {
	N          int     `json:"n"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
	TailP      float64 `json:"tail_p,omitempty"`
	Tail       float64 `json:"tail,omitempty"`
	Unit       string  `json:"unit"`
	Bound      float64 `json:"bound,omitempty"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

func summarise(xs []float64, d metricDef) stat {
	q1, q2, q3 := quartiles(xs)
	s := stat{N: len(xs), Median: q2, Q1: q1, Q3: q3, Unit: d.Unit, Bound: d.Bound}
	if p, v, ok := tailPercentile(xs); ok {
		s.TailP, s.Tail = p, v
	}
	if d.Bound > 0 {
		s.Unresolved = unresolved(xs, d.Bound)
	}
	return s
}

// summaryLine is printed once per workload.
type summaryLine struct {
	Workload    string          `json:"workload"`
	Nproc       int             `json:"nproc"`
	Ops         int             `json:"ops"`
	Failed      int             `json:"failed"`
	FailedShare float64         `json:"failed_share"`
	EndToEnd    map[string]stat `json:"end_to_end"`
	PerLayer    map[string]stat `json:"per_layer,omitempty"`
}

// column collects one metric across ops.
func column(ops []*opResult, name string, values func(*opResult) map[string]float64) []float64 {
	xs := make([]float64, len(ops))
	for i, r := range ops {
		xs[i] = values(r)[name]
	}
	return xs
}

func layersOf(r *opResult) map[string]float64 { return r.Layers }

// traceOverhead is the traced ops' median wall time over the untraced ops'
// median, minus one.
func (wr *workloadResult) traceOverhead() float64 {
	wall := func(ops []*opResult) float64 {
		return median(column(ops, "wall_s", endToEndValues))
	}
	return wall(wr.traced)/wall(wr.untraced) - 1
}

func (wr *workloadResult) counts() (ops, failed int) {
	for _, r := range append(append([]*opResult(nil), wr.untraced...), wr.traced...) {
		ops += r.Cells
		failed += r.Failed
	}
	return ops, failed
}

func (wr *workloadResult) summary(trace bool) summaryLine {
	ops, failed := wr.counts()
	s := summaryLine{Workload: wr.w.name, Nproc: runtime.NumCPU(), Ops: ops, Failed: failed,
		FailedShare: float64(failed) / float64(ops), EndToEnd: map[string]stat{}}
	for _, d := range endToEnd {
		s.EndToEnd[d.Name] = summarise(column(wr.untraced, d.Name, endToEndValues), d)
	}
	if trace {
		s.PerLayer = map[string]stat{}
		for _, d := range perLayer {
			xs := column(wr.traced, d.Name, layersOf)
			if d.Name == "trace.overhead" {
				xs = []float64{wr.traceOverhead()}
			}
			s.PerLayer[d.Name] = summarise(xs, d)
		}
	}
	return s
}

// resultLine is the last line of a single-workload invocation: the
// end-to-end metrics, or the per-layer metrics when tracing.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func (wr *workloadResult) result(trace bool) resultLine {
	s := wr.summary(trace)
	stats := s.EndToEnd
	if trace {
		stats = s.PerLayer
	}
	out := resultLine{Correct: s.Failed == 0, Attempted: s.Ops, Failed: s.Failed, Metrics: map[string]valueUnit{}}
	for name, st := range stats {
		out.Metrics[name] = valueUnit{st.Median, st.Unit}
	}
	return out
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
