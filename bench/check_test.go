package main

import (
	"strings"
	"testing"
	"time"

	"mlorass/internal/experiment"
	"mlorass/internal/routing"
	"mlorass/internal/stats"
)

// smallRun is a quick ROBC run with deliveries, duplicates and relays.
func smallRun(t *testing.T) *experiment.Result {
	t.Helper()
	cfg := experiment.QuickConfig()
	cfg.Scheme = routing.SchemeROBC
	cfg.Duration = time.Hour
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("the check fixture delivered nothing")
	}
	return res
}

func TestCheckResultCatchesDoctoredResults(t *testing.T) {
	res := smallRun(t)
	if err := checkResult(res); err != nil {
		t.Fatalf("an honest result failed its checks: %v", err)
	}
	for name, doctor := range map[string]func(r *experiment.Result){
		"one delivery too many":      func(r *experiment.Result) { r.Delivered++ },
		"ledger and telemetry split": func(r *experiment.Result) { r.Telemetry.Counters.ServerFresh-- },
		"more delivered than sent":   func(r *experiment.Result) { r.Generated = uint64(r.Delivered) - 1 },
		"duplicates miscounted":      func(r *experiment.Result) { r.Duplicates++ },
		"a delay sample lost":        func(r *experiment.Result) { r.Delay = stats.Summary{} },
		"arrival series short": func(r *experiment.Result) {
			ts, _ := stats.NewTimeSeries(r.Config.ThroughputBin, r.Config.Duration)
			r.Throughput = ts
		},
		"arrival series missing": func(r *experiment.Result) { r.Throughput = nil },
	} {
		doctored := *res
		doctor(&doctored)
		if err := checkResult(&doctored); err == nil {
			t.Errorf("%s: doctored result passed", name)
		}
	}
}

func TestReferenceTolerances(t *testing.T) {
	ref := outcome{Generated: 1000, Delivered: 900, MeanDelayS: 100}
	for _, tc := range []struct {
		got  outcome
		fail string
	}{
		{outcome{1000, 900, 100}, ""},
		{outcome{1000, 905, 101.5}, ""}, // engine-divergence sized differences
		{outcome{1001, 900, 100}, "generated"},
		{outcome{1000, 890, 100}, "delivered"},
		{outcome{1000, 900, 97}, "mean delay"},
	} {
		err := tc.got.matches(ref)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%+v: %v", tc.got, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%+v: got %v, want a %s mismatch", tc.got, err, tc.fail)
		}
	}
}

func TestOutcomePoolsMeanDelay(t *testing.T) {
	var a, b stats.Summary
	a.Add(10)
	b.Add(40)
	b.Add(40)
	var o outcome
	o.add(&experiment.Result{Generated: 3, Delivered: 1, Delay: a})
	o.add(&experiment.Result{Generated: 5, Delivered: 2, Delay: b})
	if o.Generated != 8 || o.Delivered != 3 || o.MeanDelayS != 30 {
		t.Fatalf("pooled outcome %+v, want 8 generated, 3 delivered, 30 s mean delay", o)
	}
}

func TestReferencesCoverSeedsOneAndTwo(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			if _, ok := refs[w.refGroup][seed]; !ok {
				t.Errorf("no %s reference for seed %d (used by %s)", w.refGroup, seed, w.name)
			}
		}
	}
}
