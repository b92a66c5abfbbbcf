package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"mlorass/internal/runstore"
)

// busyHashing keeps the CPU in runstore.Key (SHA-256 underneath) for d.
func busyHashing(d time.Duration) string {
	buf := bytes.Repeat([]byte("cell"), 1024)
	var key string
	for end := time.Now().Add(d); time.Now().Before(end); {
		key = runstore.Key(buf)
	}
	return key
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	busyHashing(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Fatal("profile holds no samples")
	}
	layers := p.attribute()
	var sum float64
	for _, l := range cpuLayers {
		sum += layers[l]
	}
	if len(layers) != len(cpuLayers) {
		t.Errorf("attributed to %d layers, want exactly the %d reported ones: %v", len(layers), len(cpuLayers), layers)
	}
	if total := p.totalSeconds(); math.Abs(sum-total) > 1e-9 {
		t.Errorf("layers sum to %v s, profile holds %v s", sum, total)
	}
	// SHA-256 runs in crypto/sha256, whose first mlorass caller is
	// runstore.Key: the samples must land there, not in the caller here.
	if share := layers["runstore"] / sum; share < 0.5 {
		t.Errorf("runstore holds %.0f%% of a hashing loop's samples: %v", 100*share, layers)
	}
}

func TestAttributeStack(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "mlorass/internal/experiment.(*sim).overhear", "main.runDay"}, "experiment.engine"},
		{[]string{"mlorass/internal/rng.(*Rand).Uint64", "mlorass/internal/stats.(*Summary).Add", "mlorass/internal/radio.(*Medium).Receive"}, "radio"},
		{[]string{"mlorass/internal/experiment.(*devIndex).candidates", "mlorass/internal/experiment.(*sim).overhear"}, "experiment.grid"},
		{[]string{"encoding/json.Marshal", "mlorass/internal/experiment.encodeResult"}, "experiment.codec"},
		{[]string{"encoding/json.Unmarshal", "mlorass/internal/experiment.decodeResult", "mlorass/internal/experiment.(*FarmSweep).Verify"}, "experiment.codec"},
		{[]string{"syscall.Syscall", "mlorass/internal/sweepfarm/wire.(*Client).exchange"}, "wire"},
		{[]string{"mlorass/internal/sweepfarm.(*Coordinator).Claim"}, "sweepfarm"},
		{[]string{"mlorass/internal/geo.Point.Dist", "mlorass/internal/mobility.(*Cursor).At"}, "mobility"},
		{[]string{"mlorass/internal/mac.(*Scheduler).Place"}, "netserver"},
		{[]string{"mlorass/internal/core.(*GatewayEstimator).Observe"}, "routing"},
		{[]string{"mlorass/internal/obs.(*FlightRecorder).EndSpan"}, "telemetry"},
		{[]string{"time.now", "main.(*spanRecorder).EndSpan", "mlorass/internal/experiment.(*sharded).phase"}, "telemetry"},
		{[]string{"mlorass/internal/disruption.Compile"}, "experiment.engine"},
		{[]string{"mlorass/internal/eventsim.(*Pool).Run[...]"}, "eventsim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.other"},
		{nil, "runtime.other"},
	} {
		if got := attributeStack(tc.stack); got != tc.want {
			t.Errorf("attributeStack(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestParseRejectsDamagedProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.StopCPUProfile()
	good := buf.Bytes()
	if _, err := parseCPUProfile(good); err != nil {
		t.Fatalf("empty profile: %v", err)
	}
	if _, err := parseCPUProfile(good[:len(good)/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
	if _, err := pbFields([]byte{0x0a, 0x05, 'a'}); err == nil {
		t.Error("a length-delimited field running past the end decoded")
	}
}
