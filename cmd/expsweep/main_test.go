package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFlagValidationErrors locks the satellite contract: every invalid flag
// combination fails with a descriptive error (which main turns into a
// non-zero exit), never a panic or a silently applied default.
func TestFlagValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown fig", []string{"-fig", "99"}, `unknown figure "99"`},
		{"unknown env", []string{"-env", "ocean"}, `unknown environment "ocean"`},
		{"unknown scenario", []string{"-scenario", "submarines"}, "unknown mobility scenario"},
		{"zero parallel", []string{"-parallel", "0"}, "-parallel 0 must be at least 1"},
		{"negative parallel", []string{"-parallel", "-3"}, "-parallel -3 must be at least 1"},
		{"zero reps", []string{"-reps", "0"}, "-reps 0 must be at least 1"},
		{"negative nodes", []string{"-scenario", "sensorgrid", "-nodes", "-5"}, "-nodes -5 must be non-negative"},
		{"nodes with buses", []string{"-nodes", "10"}, "-nodes applies to the randomwaypoint/sensorgrid scenarios"},
		{"positional args", []string{"-fig", "7", "extra", "arg"}, "unexpected positional arguments"},
		{"zero trace sample", []string{"-trace", "t.jsonl", "-trace-sample", "0"}, "-trace-sample 0 must be at least 1"},
		{"bad trace format", []string{"-trace", "t.jsonl", "-trace-format", "xml"}, `unknown -trace-format "xml"`},
		{"fig7 non-bus", []string{"-fig", "7", "-scenario", "randomwaypoint"}, "fig 7 charts the bus timetable"},
		{"ablations non-bus", []string{"-fig", "ablations", "-scenario", "sensorgrid"}, "placement ablation needs the bus timetable"},
		{"fig adr with -adr", []string{"-fig", "adr", "-adr"}, "-fig adr sweeps the MAC modes itself"},
		{"fig adr with -confirmed", []string{"-fig", "adr", "-confirmed"}, "-fig adr sweeps the MAC modes itself"},
		{"zero shards", []string{"-shards", "0"}, "-shards 0 outside [1, 1024]"},
		{"negative shards", []string{"-shards", "-1"}, "-shards -1 outside [1, 1024]"},
		{"huge shards", []string{"-shards", "4096"}, "-shards 4096 outside [1, 1024]"},
		{"progress non-sweep fig", []string{"-fig", "7", "-progress"}, "has no sweep cells"},
		{"progress with quiet", []string{"-fig", "8", "-progress", "-quiet"}, "contradictory"},
		{"spans clashes with trace", []string{"-fig", "8", "-spans", "t.jsonl", "-trace", "t.jsonl"}, "would interleave"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error = %q, want substring %q", tc.args, err.Error(), tc.want)
			}
		})
	}
}

// TestBadStoreDirFails checks that an unusable -store path errors out
// instead of silently disabling the cache.
func TestBadStoreDirFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-fig", "8", "-store", filepath.Join(file, "sub")})
	if err == nil {
		t.Fatal("store under a regular file accepted")
	}
}

// TestBadTraceFileFails checks that an unwritable -trace path errors out.
func TestBadTraceFileFails(t *testing.T) {
	err := run([]string{"-fig", "8", "-trace", filepath.Join(t.TempDir(), "missing", "t.jsonl")})
	if err == nil {
		t.Fatal("trace file in a missing directory accepted")
	}
	if !strings.Contains(err.Error(), "opening trace file") {
		t.Fatalf("error = %q", err)
	}
}

// TestFig7Runs smoke-tests the one artefact cheap enough for a CLI test.
func TestFig7Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full synthetic dataset")
	}
	old := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = old }()
	if err := run([]string{"-fig", "7", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

// TestFigADRRuns smoke-tests the ADR figure end to end: the CLI renders the
// three-mode table with its baseline column.
func TestFigADRRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick ADR grid")
	}
	out := captureRun(t, "-fig", "adr", "-quick", "-env", "urban", "-quiet")
	for _, want := range []string{"ADR: delivery %", "fixed-SF", "ADR+confirmed", "retx"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ADR table missing %q:\n%s", want, out)
		}
	}
}

// TestFigAllProgress: -fig all takes -progress, and each sweep grid it runs
// (figure, resilience, adr) draws its status line to completion.
func TestFigAllProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick artefact")
	}
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	old := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = old }()
	captureRun(t, "-fig", "all", "-quick", "-env", "urban", "-progress")
	log, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig 8 urban: 21/21 cells", "fig resilience urban: 15/15 cells", "fig adr urban: 21/21 cells"} {
		if !strings.Contains(string(log), want) {
			t.Errorf("stderr missing status %q:\n%s", want, log)
		}
	}
}

// TestConfirmedFlagThreadsThrough checks -adr/-confirmed reach the
// simulation: the throughput series still renders under the MAC control
// plane, proving the flags compose with the classic figures rather than
// being silently dropped.
func TestConfirmedFlagThreadsThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small resilience grid")
	}
	old := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = old }()
	if err := run([]string{"-fig", "10", "-quick", "-confirmed", "-adr"}); err != nil {
		t.Fatal(err)
	}
}

// TestShardsFlagThreadsThrough checks -shards reaches the simulation: the
// throughput series renders identically whether the sweep runs on 1 tile or
// 4 — the CLI-level face of the engine's shard-count-invariance contract.
func TestShardsFlagThreadsThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick throughput series twice")
	}
	one := captureRun(t, "-fig", "10", "-quick", "-shards", "1")
	four := captureRun(t, "-fig", "10", "-quick", "-shards", "4")
	if one != four {
		t.Fatalf("-shards changed the figure output:\n--- shards=1\n%s\n--- shards=4\n%s", one, four)
	}
}

// TestProfileFlags covers the -cpuprofile/-memprofile satellite: a run with
// both flags writes two non-empty pprof files on clean exit, and unwritable
// paths fail before any simulation starts.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig 7 to completion")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	old := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = old }()
	if err := run([]string{"-fig", "7", "-quick", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestBadSpansFileFails checks that an unwritable -spans path errors out
// before any simulation starts, like -trace.
func TestBadSpansFileFails(t *testing.T) {
	err := run([]string{"-fig", "8", "-spans", filepath.Join(t.TempDir(), "missing", "s.jsonl")})
	if err == nil {
		t.Fatal("spans file in a missing directory accepted")
	}
	if !strings.Contains(err.Error(), "opening -spans file") {
		t.Fatalf("error = %q", err)
	}
}

// TestListenBadAddress checks that an unparseable -listen address fails fast
// with the server's own error, before the sweep runs.
func TestListenBadAddress(t *testing.T) {
	err := run([]string{"-fig", "8", "-listen", "not-an-address:port"})
	if err == nil {
		t.Fatal("bogus -listen address accepted")
	}
	if !strings.Contains(err.Error(), "observability server") {
		t.Fatalf("error = %q", err)
	}
}

// TestListenPortInUse checks the port-collision path: -listen on an address
// something else already holds errors out synchronously instead of sweeping
// with a dead dashboard.
func TestListenPortInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run([]string{"-fig", "8", "-listen", ln.Addr().String()})
	if err == nil {
		t.Fatal("-listen on a busy port accepted")
	}
	if !strings.Contains(err.Error(), "observability server") {
		t.Fatalf("error = %q", err)
	}
}

// TestListenServesLiveSweep is the end-to-end face of the observability
// tentpole: a real fig-8 sweep with -listen prints its URL, answers /metrics
// with the core families and the sweep gauges while (or immediately after)
// cells run, serves /spans, and still exits cleanly. Under -race this doubles
// as the CLI-level mid-run scrape proof.
func TestListenServesLiveSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick fig 8 sweep")
	}
	oldOut := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = oldOut }()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldErr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = oldErr }()

	// Drain stderr continuously so the sweep can never block on the pipe,
	// and hand the first observability line to the scraper.
	urlCh := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "observability at "); i >= 0 {
				u := strings.TrimSpace(line[i+len("observability at "):])
				u = strings.TrimSuffix(strings.Fields(u)[0], "/")
				select {
				case urlCh <- u:
				default:
				}
			}
		}
	}()

	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{"-fig", "8", "-quick", "-env", "urban",
			"-listen", "127.0.0.1:0", "-quiet"})
	}()

	var base string
	select {
	case base = <-urlCh:
	case err := <-runDone:
		t.Fatalf("run finished (%v) without printing the observability URL", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no observability URL on stderr after 30s")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"mlorass_messages_generated_total",
		"mlorass_delay_seconds_bucket",
		"mlorass_sweep_cells_total",
		"mlorass_live_runs",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if dash := get("/"); !strings.Contains(dash, "expsweep -fig 8") {
		t.Error("dashboard missing its title")
	}
	get("/spans")

	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	w.Close()
	<-drained
}

// TestProfileFlagBadPaths checks that profile files in missing directories
// fail fast with descriptive errors.
func TestProfileFlagBadPaths(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "p.prof")
	err := run([]string{"-fig", "7", "-cpuprofile", missing})
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("bad -cpuprofile error = %v", err)
	}
	err = run([]string{"-fig", "7", "-memprofile", missing})
	if err == nil || !strings.Contains(err.Error(), "-memprofile") {
		t.Fatalf("bad -memprofile error = %v", err)
	}
}
