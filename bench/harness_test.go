package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "re-record testdata/references.json at full scale")

// TestMain lets the test binary serve as the harness's child process, so the
// smoke test drives the real re-exec path.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		if err := childMain(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench op:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the subset of BENCHMARK.json the harness defines.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := readBenchmarkFile(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nharness\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\nharness\n%+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
}

// TestSmoke runs a miniature of every workload — a 10-minute day, one
// replication of the sweep grid — through the real child processes, traced
// and untraced, and checks that every metric BENCHMARK.json names comes out
// with its unit.
func TestSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkFile(t)
	var stdout, stderr bytes.Buffer
	r := &runner{exe: exe, workDir: t.TempDir(), scale: scale{Horizon: 10 * time.Minute, Reps: 1},
		stdout: &stdout, stderr: &stderr}
	for _, w := range workloads {
		wr, err := r.runWorkload(w, options{seed: 1, runs: 1, trace: true})
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, stderr.String())
		}
		for _, tc := range []struct {
			trace bool
			defs  []metricDef
		}{{false, b.EndToEnd}, {true, b.PerLayer}} {
			res := wr.result(tc.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: %+v\n%s", w.name, tc.trace, res, stdout.String())
			}
			if len(res.Metrics) != len(tc.defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, tc.trace, len(res.Metrics), len(tc.defs))
			}
			for _, d := range tc.defs {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, tc.trace, d.Name, got, d.Unit)
				}
			}
		}
	}
	// Every printed line is one JSON object.
	for _, line := range bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n")) {
		if !json.Valid(line) {
			t.Errorf("invalid output line %q", line)
		}
	}
}

func TestEndToEndValuesScaleToHostSpeed(t *testing.T) {
	half := 2 * referenceProbe.Seconds() // the probe took twice its reference time
	r := &opResult{WallS: 2, SetupS: 0.5, CPUS: 3, SimS: 3000, Cells: 10, PeakRSSMiB: 50,
		ProbeS: [2]float64{half * 0.9, half * 1.1}}
	got := endToEndValues(r)
	want := map[string]float64{"wall_s": 1, "setup_s": 0.25, "cpu_s": 1.5,
		"sim_speedup": 4000, "cells_per_s": 10 / 0.75, "peak_rss_mib": 50}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "sweep", "--seed", "7", "--seconds", "20", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, options{workloads: []string{"sweep"}, seed: 7, runs: 3, seconds: 20, trace: true}) {
		t.Errorf("double-dash arguments parsed to %+v", o)
	}
	o, err = parseArgs([]string{"-w", "day", "-w", "farm-tcp", "-trace", "0", "-runs", "5", "-seconds", "0"}, io.Discard)
	if err != nil || o.trace || o.runs != 5 || o.seconds != 0 || !reflect.DeepEqual(o.workloads, []string{"day", "farm-tcp"}) {
		t.Errorf("repeated -w and -trace 0 parsed to %+v, %v", o, err)
	}
	o, err = parseArgs([]string{"-trace"}, io.Discard)
	if err != nil || !o.trace || o.runs != 3 || o.seconds != 25 || len(o.workloads) != len(workloads) {
		t.Errorf("bare -trace parsed to %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"-w", "nope"}, {"-runs", "0"}, {"-seconds", "-1"}, {"stray"}} {
		if _, err := parseArgs(bad, io.Discard); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestRecordReferences re-records the reference outcomes for seeds 1 and 2
// at full scale (go test -run TestRecordReferences -update, ~15 s). Day
// references come from the serial engine; the tile engine is checked
// against them within the tolerance band.
func TestRecordReferences(t *testing.T) {
	if !*update {
		t.Skip("run with -update to re-record")
	}
	refs := map[string]map[uint64]outcome{}
	for _, name := range []string{"day", "sweep"} {
		w, _ := workloadByName(name)
		refs[w.refGroup] = map[uint64]outcome{}
		for _, seed := range []uint64{1, 2} {
			run, err := w.run(opSpec{Workload: name, Seed: seed, Scale: fullScale, WorkDir: t.TempDir()}, newInstruments(false))
			if err != nil {
				t.Fatal(err)
			}
			if run.tally.failed != 0 {
				t.Fatalf("%s seed %d failed its checks: %v", name, seed, run.tally.errs)
			}
			refs[w.refGroup][seed] = run.tally.out
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/references.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
