package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mlorass/internal/experiment"
)

// helperSep separates arguments inside EXPSWEEP_HELPER_ARGS; environment
// variables cannot carry NUL, and 0x1f never appears in expsweep flags.
const helperSep = "\x1f"

// TestMain doubles as an expsweep re-exec hook: when EXPSWEEP_HELPER_ARGS is
// set the test binary behaves exactly like the expsweep CLI with those
// arguments. The multi-process wire tests use this to spawn real coordinator
// and worker processes without needing a prebuilt binary.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv("EXPSWEEP_HELPER_ARGS"); ok {
		if err := run(strings.Split(raw, helperSep)); err != nil {
			fmt.Fprintln(os.Stderr, "expsweep:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// expsweepCmd builds a subprocess that re-executes this test binary as
// expsweep with the given CLI arguments. The context kills it on timeout.
func expsweepCmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "EXPSWEEP_HELPER_ARGS="+strings.Join(args, helperSep))
	return cmd
}

// captureRun executes run(args) in-process with stdout redirected, failing
// the test on any run error, and returns what was printed.
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	got := make(chan string)
	go func() {
		var buf strings.Builder
		io.Copy(&buf, r)
		got <- buf.String()
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out := <-got
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// TestFlagValidation covers the flag combinations only the wire modes
// reject: -serve and -connect are exclusive, each pins one environment and
// one sweep grid, and the observability flags stay on the coordinator side.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"serve with connect", []string{"-serve", "x:1", "-connect", "y:1"}, "exclusive"},
		{"serve env both", []string{"-serve", "x:1"}, "ambiguous over the wire"},
		{"connect env both", []string{"-connect", "y:1"}, "ambiguous over the wire"},
		{"connect with listen", []string{"-connect", "y:1", "-env", "urban", "-listen", ":0"}, "-listen (observability) belongs on the -serve side"},
		{"connect with progress", []string{"-connect", "y:1", "-env", "urban", "-progress"}, "-progress belongs on the -serve side"},
		{"serve non-sweep fig", []string{"-serve", "x:1", "-env", "urban", "-fig", "all"}, "-fig all runs in one process"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseEnvs(t *testing.T) {
	if envs, err := parseEnvs("both"); err != nil || len(envs) != 2 {
		t.Fatalf("both: %v %v", envs, err)
	}
	if envs, err := parseEnvs("urban"); err != nil || len(envs) != 1 {
		t.Fatalf("urban: %v %v", envs, err)
	}
	if envs, err := parseEnvs("rural"); err != nil || len(envs) != 1 {
		t.Fatalf("rural: %v %v", envs, err)
	}
	if _, err := parseEnvs("mars"); err == nil {
		t.Fatal("mars: want error")
	}
}

func TestWorkerName(t *testing.T) {
	if workerName("") != "store" || workerName("w3") != "w3" {
		t.Fatal("workerName mapping broken")
	}
}

var errAccept = errors.New("accept: too many open files")

// acceptFailListener is a listener whose Accept always fails, as a real one
// does when the process runs out of file descriptors.
type acceptFailListener struct{}

func (acceptFailListener) Accept() (net.Conn, error) { return nil, errAccept }
func (acceptFailListener) Close() error              { return nil }
func (acceptFailListener) Addr() net.Addr            { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestServeReturnsWhenServingFails is the regression test for a coordinator
// that waited only for the sweep to finish: once the server stops accepting,
// no worker can ever complete a cell, so serveSweep must return the serve
// error instead of hanging.
func TestServeReturnsWhenServingFails(t *testing.T) {
	sw := sweeper{reps: 1, quiet: true}
	done := make(chan error, 1)
	go func() {
		done <- sw.serveSweep(acceptFailListener{}, "8", experiment.QuickConfig(), experiment.Urban, time.Second, 0)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errAccept) {
			t.Fatalf("serveSweep error = %v, want the accept error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveSweep still waiting 30s after its listener failed")
	}
}

var serveAddrRe = regexp.MustCompile(` on (127\.0\.0\.1:\d+) \(`)

// startServe launches an expsweep -serve subprocess, waits for it to
// announce its listen address on stderr, and returns the address, the
// stdout buffer the tables will land in, and a channel of its remaining
// stderr lines (closed when the process's stderr reaches EOF).
func startServe(ctx context.Context, t *testing.T, args []string) (*exec.Cmd, string, *bytes.Buffer, <-chan string) {
	t.Helper()
	cmd := expsweepCmd(ctx, args...)
	var tables bytes.Buffer
	cmd.Stdout = &tables
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Buffered well past a quick sweep's stderr, so the coordinator never
	// stalls on a full pipe while the test is busy between reads.
	lines := make(chan string, 1024)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				cmd.Wait()
				t.Fatal("coordinator exited before announcing its address")
			}
			if m := serveAddrRe.FindStringSubmatch(line); m != nil {
				return cmd, m[1], &tables, lines
			}
		case <-ctx.Done():
			t.Fatal("timed out waiting for the coordinator to announce its address")
		}
	}
}

// wireRound runs one -serve coordinator and a single -connect worker, both
// given sweep, to completion, and returns the coordinator's stdout and
// stderr. drain must outlast the worker's start-up when the coordinator
// may finish before the worker connects (a store-resumed sweep).
// workerExtra is appended to the worker's flags only.
func wireRound(ctx context.Context, t *testing.T, sweep []string, drain string, workerExtra ...string) (string, string) {
	t.Helper()
	serve, addr, tables, lines := startServe(ctx, t,
		append(append([]string{}, sweep...), "-serve", "127.0.0.1:0", "-drain", drain))
	w := expsweepCmd(ctx, append(append(append([]string{}, sweep...), workerExtra...),
		"-connect", addr, "-id", "wx", "-giveup", "30s")...)
	var wLog bytes.Buffer
	w.Stdout, w.Stderr = io.Discard, &wLog
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	var serveLog strings.Builder
	for line := range lines {
		serveLog.WriteString(line + "\n")
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, serveLog.String())
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("worker failed: %v\nstderr:\n%s", err, wLog.String())
	}
	return tables.String(), serveLog.String()
}

// TestWireMatchesLocalUnderConfigFlags checks that the wire mode builds its
// config and grid through the same path as the local sweep: for every sweep
// grid, with non-default engine and MAC flags on both sides, and no store
// (artefacts travel inline), the coordinator's tables are byte-identical to
// the single-process run's.
func TestWireMatchesLocalUnderConfigFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep is slow; skipped in -short")
	}
	common := []string{"-quick", "-env", "urban", "-seed", "1", "-shards", "2", "-quiet"}
	for _, grid := range [][]string{
		{"-fig", "8", "-adr"},
		{"-fig", "resilience", "-adr"},
		{"-fig", "adr"},
	} {
		t.Run(grid[1], func(t *testing.T) {
			sweep := append(append([]string{}, grid...), common...)
			want := captureRun(t, sweep...)
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			if got, _ := wireRound(ctx, t, sweep, "1s"); got != want {
				t.Errorf("wire tables differ from the local run\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestWireConfigMismatchQuarantines runs a worker whose config differs from
// the coordinator's (-adr on the worker only) over a shared store: the MAC
// mode is part of every store key, so the worker must refuse each leased
// cell with the key-mismatch error, and the coordinator must quarantine the
// cells and report them as gaps instead of merging the wrong results.
func TestWireConfigMismatchQuarantines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep is slow; skipped in -short")
	}
	sweep := []string{"-fig", "8", "-quick", "-env", "urban", "-seed", "1",
		"-store", filepath.Join(t.TempDir(), "store")}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	tables, log := wireRound(ctx, t, sweep, "1s", "-adr")
	if !strings.Contains(log, "but this worker derives") || !strings.Contains(log, "disagree with the coordinator") {
		t.Errorf("coordinator never logged the worker's key-mismatch error\nstderr:\n%s", log)
	}
	if !strings.Contains(tables, "QUARANTINED: 21 of 21 cells") {
		t.Errorf("mismatched cells were not all reported as gaps\nstdout:\n%s", tables)
	}
}

// TestServeSurvivesWorkerKill is the multi-process supervision proof: a
// -serve coordinator and two -connect worker processes over loopback TCP,
// one worker SIGKILLed mid-sweep. The coordinator must finish the sweep on
// the surviving worker (expired leases re-queue the dead worker's cells)
// and print tables byte-identical to the single-process run. A second
// serve+worker round over the same store must then recover every cell.
func TestServeSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep is slow; skipped in -short")
	}
	base := []string{"-fig", "8", "-quick", "-env", "urban", "-seed", "1"}
	want := captureRun(t, append(append([]string{}, base...), "-quiet")...)

	store := filepath.Join(t.TempDir(), "store")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Short lease TTL so the killed worker's in-flight cells re-queue
	// quickly instead of waiting out the default 30s.
	serveArgs := append(append([]string{}, base...),
		"-store", store, "-serve", "127.0.0.1:0", "-lease-ttl", "2s", "-drain", "2s")
	serve, addr, tables, lines := startServe(ctx, t, serveArgs)

	workerCmd := func(id string) *exec.Cmd {
		args := append(append([]string{}, base...),
			"-store", store, "-connect", addr, "-id", id, "-giveup", "30s")
		return expsweepCmd(ctx, args...)
	}
	victim := workerCmd("wa")
	victim.Stdout, victim.Stderr = io.Discard, io.Discard
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Wait() // reaps the SIGKILL; its error is the point
	survivor := workerCmd("wb")
	var survivorLog bytes.Buffer
	survivor.Stdout, survivor.Stderr = io.Discard, &survivorLog
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}

	// Watch the coordinator's per-cell lines; the first one attributed to
	// wa proves it is actively computing — kill it there, mid-sweep.
	killed := false
	var serveLog strings.Builder
	for line := range lines {
		serveLog.WriteString(line + "\n")
		if !killed && strings.Contains(line, "(wa)") {
			killed = true
			if err := victim.Process.Kill(); err != nil {
				t.Fatalf("killing worker wa: %v", err)
			}
		}
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, serveLog.String())
	}
	if !killed {
		t.Fatalf("never saw a cell completed by wa, so nothing was killed mid-sweep\nstderr:\n%s", serveLog.String())
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("surviving worker failed: %v\nstderr:\n%s", err, survivorLog.String())
	}
	if got := tables.String(); got != want {
		t.Errorf("tables after worker kill differ from the single-process run\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Store-resumed round: a fresh coordinator over the same store must
	// recover every cell and print the same tables again.
	got, resumeLog := wireRound(ctx, t, append(append([]string{}, base...), "-store", store), "5s")
	if got != want {
		t.Errorf("store-resumed tables differ from the single-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(resumeLog, "21 recovered, 0 computed by remote workers") {
		t.Errorf("resumed coordinator did not recover every cell\nstderr:\n%s", resumeLog)
	}
}
