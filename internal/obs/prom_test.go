package obs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlorass/internal/telemetry"
)

// The exposition golden locks the wire format: metric names, label sets,
// and the histogram bucket edges (the telemetry layout's exact power-of-two
// boundaries). Any drift breaks deployed scrape configs, so it must be
// deliberate: regenerate with `go test ./internal/obs -run Exposition -update`.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// testSnapshot builds a deterministic snapshot touching every family.
func testSnapshot() telemetry.Snapshot {
	r := telemetry.NewRecorder()
	for i := 0; i < 5; i++ {
		r.AddGenerated()
	}
	r.AddFrame()
	r.AddFrame()
	r.AddUplinkDelivery()
	r.AddServerFresh(3)
	r.AddServerDuplicate()
	r.AddRelayHops(4)
	for i := 0; i < 3; i++ {
		r.AddHandoverAttempt()
	}
	r.AddHandoverSuccess()
	r.AddHandoverSuccess()
	r.AddHandoverMissedMsgs(5)
	r.AddQueueDrops(1)
	r.AddKernelEvent()
	r.AddTraceEvent()
	r.AddDownlink()
	r.AddDownlinkDelivery()
	r.AddDownlinkDrop()
	r.AddDownlinkDrop()
	r.AddAckTimeout()
	r.AddRetransmission()
	for i := 0; i < 6; i++ {
		r.AddADRCommand()
	}
	r.AddADRApplied()
	for sf := 7; sf <= 12; sf++ {
		r.AddUplinkSF(sf)
		r.AddUplinkSF(sf)
	}
	// Delay observations chosen to land in underflow (0.0001), the bottom
	// octave (0.001), mid-layout (0.8, 300), and overflow (5e6).
	for _, v := range []float64{0.0001, 0.001, 0.8, 300, 5e6} {
		r.ObserveDelay(v)
	}
	r.ObserveAirtime(0.057)
	r.ObserveAirtime(1.32)
	return r.Snapshot()
}

func TestExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteSnapshot(&b, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionFormat checks structural invariants independent of the
// golden bytes: family completeness, fixed SF label set, histogram shape.
func TestExpositionFormat(t *testing.T) {
	var b strings.Builder
	if err := WriteSnapshot(&b, telemetry.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, family := range []string{
		"mlorass_messages_generated_total",
		"mlorass_frames_on_air_total",
		"mlorass_uplink_deliveries_total",
		"mlorass_server_fresh_total",
		"mlorass_server_duplicates_total",
		"mlorass_relay_hops_total",
		"mlorass_queue_drops_total",
		"mlorass_kernel_events_total",
		"mlorass_trace_events_total",
		"mlorass_downlinks_total",
		"mlorass_downlink_deliveries_total",
		"mlorass_downlink_drops_total",
		"mlorass_ack_timeouts_total",
		"mlorass_retransmissions_total",
		"mlorass_adr_commands_total",
		"mlorass_adr_applied_total",
		"mlorass_uplink_sf_frames_total",
		"mlorass_delay_seconds",
		"mlorass_airtime_seconds",
	} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("zero-valued exposition missing family %s", family)
		}
	}
	// Fixed SF label set: all six series present even when empty.
	for sf := 7; sf <= 12; sf++ {
		if !strings.Contains(out, fmt.Sprintf(`mlorass_uplink_sf_frames_total{sf="%d"} 0`, sf)) {
			t.Errorf("missing sf=%d series", sf)
		}
	}
	// The histogram's first bucket edge is the exact layout bottom (2^-10)
	// and the last is +Inf; 33 bounded edges in between (31 octaves + top).
	if !strings.Contains(out, `mlorass_delay_seconds_bucket{le="0.0009765625"} 0`) {
		t.Error("first delay bucket edge is not 2^-10")
	}
	if !strings.Contains(out, `mlorass_delay_seconds_bucket{le="2.097152e+06"} 0`) {
		t.Error("top delay bucket edge is not 2^21")
	}
	if !strings.Contains(out, `mlorass_delay_seconds_bucket{le="+Inf"} 0`) {
		t.Error("missing +Inf bucket")
	}
	if n := strings.Count(out, "mlorass_delay_seconds_bucket{"); n != 33 {
		t.Errorf("delay histogram has %d buckets, want 33 (32 octave edges + +Inf)", n)
	}
}

// TestExpositionCumulative checks the bucket series against the snapshot's
// own quantile machinery: cumulative counts must be monotone and count/sum
// must match the histogram exactly.
func TestExpositionCumulative(t *testing.T) {
	snap := testSnapshot()
	var b strings.Builder
	if err := WriteSnapshot(&b, snap); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if want := fmt.Sprintf("mlorass_delay_seconds_count %d", snap.Delay.N()); !strings.Contains(out, want) {
		t.Errorf("missing %q", want)
	}
	var last uint64
	var buckets int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "mlorass_delay_seconds_bucket{") {
			continue
		}
		buckets++
		var cum uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum); err != nil {
			t.Fatalf("unparsable bucket line %q: %v", line, err)
		}
		if cum < last {
			t.Fatalf("cumulative bucket counts regressed at %q", line)
		}
		last = cum
	}
	if buckets == 0 || last != snap.Delay.N() {
		t.Errorf("+Inf cumulative = %d over %d buckets, want %d", last, buckets, snap.Delay.N())
	}
}
