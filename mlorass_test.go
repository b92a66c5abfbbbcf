package mlorass_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"mlorass"
)

func TestPublicRunQuick(t *testing.T) {
	cfg := mlorass.QuickConfig()
	cfg.Duration = 2 * time.Hour
	cfg.Scheme = mlorass.SchemeROBC
	res, err := mlorass.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Generated == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Report() == "" {
		t.Fatal("empty report")
	}
}

func TestPublicDefaultsValid(t *testing.T) {
	for _, cfg := range []mlorass.Config{mlorass.DefaultConfig(), mlorass.QuickConfig()} {
		cfg.Normalize()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("default config invalid: %v", err)
		}
	}
}

func TestPublicSchemeAndClassNames(t *testing.T) {
	if mlorass.SchemeNoRouting.String() != "NoRouting" ||
		mlorass.SchemeRCAETX.String() != "RCA-ETX" ||
		mlorass.SchemeROBC.String() != "ROBC" {
		t.Fatal("scheme names do not match the paper's labels")
	}
	if mlorass.ClassModifiedC.String() != "Modified-Class-C" ||
		mlorass.ClassQueueA.String() != "Queue-based-Class-A" {
		t.Fatal("device-class names wrong")
	}
}

func TestPublicMetricRoundTrip(t *testing.T) {
	est, err := mlorass.NewGatewayEstimator(mlorass.DefaultGatewayConfig())
	if err != nil {
		t.Fatal(err)
	}
	est.Observe(0, true, 0.05, 0)
	if got := est.RCAETX(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("RCAETX = %v, want 20", got)
	}
	link := mlorass.DefaultLinkModel(0.05)
	if !mlorass.ShouldForwardGreedy(1000, est.RCAETX(), link.RCAETX(-70)) {
		t.Fatal("greedy rule refused an obvious win")
	}
	if got := mlorass.ROBCTransfer(20, 10, 0.5, 0.5); got != 10 {
		t.Fatalf("ROBCTransfer = %d, want 10", got)
	}
	if got := mlorass.ROBCWeight(20, 10, 0.5, 0.5); got != 20 {
		t.Fatalf("ROBCWeight = %v, want 20", got)
	}
}

func TestPublicDatasetRoundTrip(t *testing.T) {
	ds, err := mlorass.GenerateDataset(3, 5, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mlorass.EncodeDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := mlorass.DecodeDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Routes) != len(ds.Routes) || len(back.Trips) != len(ds.Trips) {
		t.Fatal("dataset round trip lost records")
	}
}

func TestPublicCustomDataset(t *testing.T) {
	ds := &mlorass.Dataset{
		Area: mlorass.SquareArea(4000),
		Routes: []mlorass.Route{{
			ID:       "R",
			SpeedMPS: 6,
			Points:   []mlorass.Point{{X: 500, Y: 2000}, {X: 3500, Y: 2000}},
		}},
		Trips: []mlorass.Trip{
			{ID: 0, RouteID: "R", Start: 0, Duration: time.Hour},
			{ID: 1, RouteID: "R", Start: 10 * time.Minute, Duration: time.Hour, Reverse: true},
		},
	}
	cfg := mlorass.DefaultConfig()
	cfg.Dataset = ds
	cfg.Duration = 90 * time.Minute
	cfg.NumGateways = 1
	res, err := mlorass.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveDevices != 2 {
		t.Fatalf("ActiveDevices = %d, want 2", res.ActiveDevices)
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries on the custom dataset")
	}
}

func TestPublicGatewaySweepMatchesTables(t *testing.T) {
	if len(mlorass.GatewaySweep()) == 0 {
		t.Fatal("empty gateway sweep")
	}
	// A one-cell sweep renders in every table.
	cfg := mlorass.QuickConfig()
	cfg.Duration = time.Hour
	cfg.Scheme = mlorass.SchemeNoRouting
	res, err := mlorass.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := []*mlorass.Result{res}
	points := []mlorass.AggregatePoint{{
		Environment: mlorass.Urban,
		Scheme:      mlorass.SchemeNoRouting,
		Gateways:    mlorass.GatewaySweep()[0],
		Seeds:       []uint64{cfg.Seed},
		Reps:        reps,
		Agg:         mlorass.AggregateResults(reps),
	}}
	for _, table := range []string{
		mlorass.Fig8AggTable(points),
		mlorass.Fig8MatchedTable(points),
		mlorass.Fig9AggTable(points),
		mlorass.Fig12AggTable(points),
		mlorass.Fig13AggTable(points),
	} {
		if table == "" {
			t.Fatal("empty figure table")
		}
	}
}

// TestPublicTelemetryAndStore exercises the telemetry + runstore surface
// through the public API: a traced run captures per-packet events and a
// store-backed sweep round-trips without re-simulating.
func TestPublicTelemetryAndStore(t *testing.T) {
	var buf bytes.Buffer
	cfg := mlorass.QuickConfig()
	cfg.Duration = 2 * time.Hour
	cfg.Telemetry.Trace = mlorass.NewTracer(mlorass.NewJSONLTraceSink(&buf), 1)
	res, err := mlorass.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Delay.N() != uint64(res.Delivered) {
		t.Fatalf("delay histogram %d samples, want %d", res.Telemetry.Delay.N(), res.Delivered)
	}
	if p99 := res.Telemetry.Delay.Percentile(99); p99 <= 0 || p99 > res.Delay.Max() {
		t.Fatalf("p99 = %v outside (0, %v]", p99, res.Delay.Max())
	}
	if cfg.Telemetry.Trace.Close() != nil || buf.Len() == 0 {
		t.Fatal("trace sink captured nothing")
	}

	store, err := mlorass.OpenRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := mlorass.QuickConfig()
	base.Duration = time.Hour
	opts := mlorass.SweepOptions{Workers: 2, Reps: 1, Store: store}
	first, err := mlorass.ParallelSweep(base, mlorass.Urban, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mlorass.ParallelSweep(base, mlorass.Urban, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits == 0 || st.Puts != uint64(len(first)) {
		t.Fatalf("store stats %+v: second sweep did not reuse artefacts", st)
	}
	if mlorass.Fig8PercentilesAggTable(second) != mlorass.Fig8PercentilesAggTable(first) {
		t.Fatal("cached percentile table differs")
	}
}
