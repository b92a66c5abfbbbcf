package experiment

import (
	"fmt"
	"testing"
	"time"

	"mlorass/internal/obs"
	"mlorass/internal/radio"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
)

// These tests lock the live-scrape contract end to end: a Registry attached
// through Config.Telemetry.Live is scraped continuously while the engines
// run — under -race this is the proof that a /metrics request can never
// tear a hot-path counter — and the registry's post-run state must equal
// the run's own quiesced telemetry. The name carries "Shard" so the CI
// race job's non-short shard pass covers the sharded variant.

func scrapeDuringRun(t *testing.T, cfg Config) {
	t.Helper()
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(256)
	cfg.Telemetry.Live = reg
	cfg.Telemetry.Spans = flight

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg)
		done <- outcome{res, err}
	}()

	var scrapes int
	var lastGen uint64
	var out outcome
	for running := true; running; {
		select {
		case out = <-done:
			running = false
		default:
			s := reg.Snapshot()
			if s.Counters.Generated < lastGen {
				t.Fatalf("live Generated regressed %d -> %d", lastGen, s.Counters.Generated)
			}
			lastGen = s.Counters.Generated
			scrapes++
			time.Sleep(200 * time.Microsecond)
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if scrapes == 0 {
		t.Fatal("no scrape overlapped the run")
	}

	// Quiesced: the registry's merged base must match the result exactly,
	// every counter included.
	got := reg.Snapshot()
	want := out.res.Telemetry
	if got.Counters != want.Counters {
		t.Errorf("registry counters diverged from Result.Telemetry:\n got %+v\nwant %+v",
			got.Counters, want.Counters)
	}
	if got.Delay != want.Delay {
		t.Errorf("registry delay histogram diverged: got %v want %v",
			got.Delay.String(), want.Delay.String())
	}
	if reg.LiveRuns() != 0 {
		t.Errorf("%d recorders still attached after the run", reg.LiveRuns())
	}

	if cfg.Shards > 0 {
		// The sharded engine must have recorded every phase family.
		byName := map[string]bool{}
		for _, pt := range flight.PhaseTotals() {
			byName[pt.Name] = true
		}
		for _, name := range []string{"kernel", "resolve", "deliver", "merge"} {
			if !byName[name] {
				t.Errorf("no %q spans recorded (totals: %v)", name, flight.PhaseTotals())
			}
		}
		if flight.Recorded() == 0 {
			t.Error("flight recorder saw no spans")
		}
	}
}

func obsLiveTestConfig() Config {
	cfg := QuickConfig()
	cfg.Seed = 7
	cfg.Duration = 2 * time.Hour
	return cfg
}

func TestLiveScrapeDuringSerialRun(t *testing.T) {
	scrapeDuringRun(t, obsLiveTestConfig())
}

func TestLiveScrapeDuringShardedRun(t *testing.T) {
	cfg := obsLiveTestConfig()
	cfg.Shards = 2
	scrapeDuringRun(t, cfg)
}

// macOverflowConfig is a forwarding run with ADR, confirmed traffic, SF12
// uplinks and three-message queues: it issues ADR commands, drops downlinks
// for want of duty budget, and overflows queues on requeue as well as on
// push, so every tally has somewhere to diverge.
func macOverflowConfig() Config {
	cfg := QuickConfig()
	cfg.Duration = 2 * time.Hour
	cfg.Scheme = routing.SchemeROBC
	cfg.SF = radio.SF12
	cfg.QueueMax = 3
	cfg.MAC.ADR, cfg.MAC.Confirmed = true, true
	return cfg
}

// TestLiveScrapeMACOverflowShard: the recorder counts queue drops on
// requeue, ADR commands and downlink drops where they happen, so the
// registry equals the Result on both engines, with and without handovers.
func TestLiveScrapeMACOverflowShard(t *testing.T) {
	for _, scheme := range []routing.Scheme{routing.SchemeNoRouting, routing.SchemeROBC} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", scheme, shards), func(t *testing.T) {
				cfg := macOverflowConfig()
				cfg.Scheme = scheme
				cfg.Shards = shards
				scrapeDuringRun(t, cfg)
			})
		}
	}
}

// TestLiveScrapeShardedMatchesUninstrumented locks the zero-perturbation
// contract: attaching a registry and a span sink must not change a single
// byte of the sharded engine's report.
func TestLiveScrapeShardedMatchesUninstrumented(t *testing.T) {
	cfg := obsLiveTestConfig()
	cfg.Shards = 2
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry.Live = obs.NewRegistry()
	cfg.Telemetry.Spans = obs.NewFlightRecorder(0)
	instr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report() != instr.Report() {
		t.Error("instrumentation changed the sharded report")
	}
	if plain.Telemetry != instr.Telemetry {
		t.Error("instrumentation changed the telemetry snapshot")
	}
}

// TestSweepCellSpans: every sweep grid emits one labelled cell span per
// replication, marking store hits.
func TestSweepCellSpans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grid  Grid
		cells int
		label string // one expected label
	}{
		{"figure", FigureGrid, len(GatewaySweep()) * len(Schemes()), "urban/ROBC/gw=10/rep=0"},
		{"outage", OutageGrid, len(OutageFractions()) * len(Schemes()), "urban/ROBC/down=80%/rep=0"},
		{"adr", ADRGrid, len(GatewaySweep()) * len(ADRModes()), "urban/ADR+confirmed/gw=25/rep=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flight := obs.NewFlightRecorder(64)
			base := QuickConfig()
			base.Seed = 3
			base.Duration = time.Hour
			base.Telemetry.Spans = flight
			if _, err := tc.grid.Sweep(base, Urban, SweepOptions{Workers: 2, Reps: 1}, nil); err != nil {
				t.Fatal(err)
			}
			spans := flight.Spans(0)
			if len(spans) != tc.cells {
				t.Fatalf("recorded %d cell spans, want %d", len(spans), tc.cells)
			}
			labels := map[string]bool{}
			for _, sp := range spans {
				if sp.Name != "cell" {
					t.Errorf("unexpected span %q", sp.Name)
				}
				if sp.Attr != 0 {
					t.Errorf("storeless sweep marked span cached: %+v", sp)
				}
				if sp.SimNS != base.Duration.Nanoseconds() {
					t.Errorf("cell span sim clock = %d, want %d", sp.SimNS, base.Duration.Nanoseconds())
				}
				labels[sp.Label] = true
			}
			if len(labels) != tc.cells {
				t.Errorf("cell labels not unique: %d distinct of %d", len(labels), tc.cells)
			}
			if !labels[tc.label] {
				t.Errorf("missing expected label %q, got %v", tc.label, labels)
			}
		})
	}
}

// The nil-sink fast path must not allocate: spans off means the sweep and
// engine hot paths stay allocation-identical to the pre-obs tree.
var _ telemetry.SpanSink = (*obs.FlightRecorder)(nil)
var _ telemetry.LiveAttacher = (*obs.Registry)(nil)
