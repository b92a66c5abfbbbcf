package experiment

import (
	"strings"
	"testing"
	"time"

	"mlorass/internal/routing"
	"mlorass/internal/stats"
	"mlorass/internal/telemetry"
)

// telemetryTestConfig is a small-but-dense scenario with forwarding enabled
// so relay and dedup paths are exercised (the sparse sweepTestConfig world
// produces no handovers).
func telemetryTestConfig() Config {
	cfg := QuickConfig()
	cfg.Scheme = routing.SchemeROBC
	cfg.Duration = 2 * time.Hour
	return cfg
}

// TestTelemetrySnapshotConsistent cross-checks the streamed counters and
// histograms against the post-run ledger measurements they mirror.
func TestTelemetrySnapshotConsistent(t *testing.T) {
	res, err := Run(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Telemetry.Counters
	if c.ServerFresh != uint64(res.Delivered) {
		t.Errorf("ServerFresh counter %d != delivered %d", c.ServerFresh, res.Delivered)
	}
	if c.ServerDuplicates != res.Duplicates {
		t.Errorf("ServerDuplicates counter %d != %d", c.ServerDuplicates, res.Duplicates)
	}
	if c.FramesOnAir != res.Medium.Transmissions {
		t.Errorf("FramesOnAir counter %d != medium tx %d", c.FramesOnAir, res.Medium.Transmissions)
	}
	if got, want := res.Telemetry.Delay.N(), uint64(res.Delivered); got != want {
		t.Errorf("delay histogram holds %d samples, want %d", got, want)
	}
	if got, want := res.Telemetry.Airtime.N(), res.Medium.Transmissions; got != want {
		t.Errorf("airtime histogram holds %d samples, want %d", got, want)
	}
	// The histogram's exact-mean carry must agree with the ledger mean.
	if hm, lm := res.Telemetry.Delay.Mean(), res.Delay.Mean(); hm != 0 && !approxEqual(hm, lm, 1e-9) {
		t.Errorf("histogram mean %v != summary mean %v", hm, lm)
	}
	// Percentiles are ordered and bracketed by the observed range.
	p50, p95, p99 := res.Telemetry.Delay.Percentile(50), res.Telemetry.Delay.Percentile(95), res.Telemetry.Delay.Percentile(99)
	if !(p50 <= p95 && p95 <= p99) || p99 > res.Delay.Max() {
		t.Errorf("percentiles disordered: p50=%v p95=%v p99=%v max=%v", p50, p95, p99, res.Delay.Max())
	}
}

// TestCheckAccounting doctors a real run's Result one identity at a time:
// the check every run and every stored-artefact load makes must name the
// identity each one breaks.
func TestCheckAccounting(t *testing.T) {
	res := mustRun(t, telemetryTestConfig())
	if err := res.checkAccounting(nil); err != nil {
		t.Fatalf("genuine run fails its accounting: %v", err)
	}
	if res.Delivered == 0 {
		t.Fatal("test run delivered nothing: the identities are vacuous")
	}
	extraArrival, err := stats.NewTimeSeries(res.Throughput.Bin(), res.Config.Duration)
	if err != nil {
		t.Fatal(err)
	}
	extraArrival.Record(0, res.Delivered+1)
	doctor := map[string]struct {
		mutate func(r *Result)
		want   string
	}{
		"delivered over generated": {func(r *Result) { r.Generated = uint64(r.Delivered) - 1 }, "exceeds generated"},
		"extra delay sample":       {func(r *Result) { r.Delay.Add(1) }, "summaries"},
		"missing hop sample":       {func(r *Result) { r.Hops = stats.Summary{} }, "summaries"},
		"extra arrival":            {func(r *Result) { r.Throughput = extraArrival }, "throughput series"},
		"fresh counter off":        {func(r *Result) { r.Telemetry.Counters.ServerFresh++ }, "server counters"},
		"duplicate counter off":    {func(r *Result) { r.Telemetry.Counters.ServerDuplicates++ }, "server counters"},
	}
	for name, d := range doctor {
		r := *res
		d.mutate(&r)
		err := r.checkAccounting(nil)
		if err == nil || !strings.Contains(err.Error(), d.want) {
			t.Errorf("%s: checkAccounting = %v, want an error mentioning %q", name, err, d.want)
		}
	}
	// A subsystem total the recorder disagrees with.
	subsystem := map[string]func(c *telemetry.Counters){
		"queue drops":    func(c *telemetry.Counters) { c.QueueDrops++ },
		"ADR commands":   func(c *telemetry.Counters) { c.ADRCommands++ },
		"downlink drops": func(c *telemetry.Counters) { c.DownlinkDrops++ },
	}
	for name, mutate := range subsystem {
		own := res.Telemetry.Counters
		if err := res.checkAccounting(&own); err != nil {
			t.Fatalf("%s: agreeing totals fail: %v", name, err)
		}
		mutate(&own)
		if err := res.checkAccounting(&own); err == nil || !strings.Contains(err.Error(), "subsystem totals") {
			t.Errorf("%s off: checkAccounting = %v, want a subsystem-totals error", name, err)
		}
	}
}

// TestTraceEndToEnd runs a traced simulation and checks the per-packet
// record: every sampled delivered message has a coherent generate →
// (relays) → uplink → deliver chain with consistent timestamps and hops, and
// tracing changes no measurement.
func TestTraceEndToEnd(t *testing.T) {
	cfg := telemetryTestConfig()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &telemetry.MemSink{}
	cfg.Telemetry.Trace = telemetry.NewTracer(sink, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != base.Delivered || res.Delay != base.Delay {
		t.Fatal("tracing changed simulation measurements")
	}
	events := sink.Events()
	if uint64(len(events)) != res.Telemetry.Counters.TraceEvents {
		t.Fatalf("sink holds %d events, counter says %d", len(events), res.Telemetry.Counters.TraceEvents)
	}

	byMsg := map[uint64][]telemetry.Event{}
	kinds := map[telemetry.EventKind]int{}
	for _, e := range events {
		byMsg[e.Msg] = append(byMsg[e.Msg], e)
		kinds[e.Kind]++
		if !strings.Contains(e.Run, "ROBC") || !strings.Contains(e.Run, "seed=1") {
			t.Fatalf("event run label %q missing context", e.Run)
		}
	}
	if kinds[telemetry.KindGenerate] != int(res.Generated) {
		t.Fatalf("%d generate events, want %d", kinds[telemetry.KindGenerate], res.Generated)
	}
	if kinds[telemetry.KindDeliver] != res.Delivered {
		t.Fatalf("%d deliver events, want %d", kinds[telemetry.KindDeliver], res.Delivered)
	}
	if kinds[telemetry.KindRelay] != int(res.HandoverMsgs) {
		t.Fatalf("%d relay events, want %d", kinds[telemetry.KindRelay], res.HandoverMsgs)
	}
	if kinds[telemetry.KindRelay] == 0 {
		t.Fatal("ROBC run produced no relay events; trace not exercising handovers")
	}

	delivered := 0
	for msg, evs := range byMsg {
		if evs[0].Kind != telemetry.KindGenerate {
			t.Fatalf("msg %d: first event %v, want generate", msg, evs[0].Kind)
		}
		last := time.Duration(-1)
		sawDeliver := false
		for _, e := range evs {
			if e.T < last {
				t.Fatalf("msg %d: timestamps regress", msg)
			}
			last = e.T
			if e.Kind == telemetry.KindDeliver {
				sawDeliver = true
				if e.DelayS <= 0 {
					t.Fatalf("msg %d: deliver with delay %v", msg, e.DelayS)
				}
			}
		}
		if sawDeliver {
			delivered++
		}
	}
	if delivered != res.Delivered {
		t.Fatalf("%d traced messages delivered, want %d", delivered, res.Delivered)
	}
	// Tracing wires the kernel probe: kernel event counts stream too.
	if res.Telemetry.Counters.KernelEvents == 0 {
		t.Fatal("kernel probe recorded no events during traced run")
	}
}

// TestTraceSampling checks that a sampled trace holds complete per-message
// records for the sampled subset only.
func TestTraceSampling(t *testing.T) {
	cfg := telemetryTestConfig()
	sink := &telemetry.MemSink{}
	tracer := telemetry.NewTracer(sink, 8)
	cfg.Telemetry.Trace = tracer
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("1-in-8 sampling captured nothing")
	}
	gens := 0
	for _, e := range events {
		if !tracer.Sampled(e.Msg) {
			t.Fatalf("unsampled message %d leaked into trace", e.Msg)
		}
		if e.Kind == telemetry.KindGenerate {
			gens++
		}
	}
	if gens >= int(res.Generated) {
		t.Fatalf("sampling did not thin the trace: %d/%d generates", gens, res.Generated)
	}
}

// TestFig8PercentilesAggTable renders the percentile table from a replicated
// aggregate and checks pooled-histogram semantics.
func TestFig8PercentilesAggTable(t *testing.T) {
	cfg := telemetryTestConfig()
	var reps []*Result
	var pooled telemetry.Histogram
	for rep := 0; rep < 2; rep++ {
		c := cfg
		c.Seed = RepSeed(cfg.Seed, rep)
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, res)
		pooled.Merge(&res.Telemetry.Delay)
	}
	agg := AggregateResults(reps)
	if agg.Telemetry.Delay.N() != pooled.N() {
		t.Fatalf("aggregate pooled %d samples, want %d", agg.Telemetry.Delay.N(), pooled.N())
	}
	p50, p95, p99 := agg.DelayPercentiles()
	if p50 != pooled.Percentile(50) || p95 != pooled.Percentile(95) || p99 != pooled.Percentile(99) {
		t.Fatal("aggregate percentiles differ from pooled histogram")
	}
	table := Fig8PercentilesAggTable([]AggregatePoint{{
		Environment: cfg.Environment, Scheme: cfg.Scheme, Gateways: cfg.NumGateways, Agg: agg,
	}})
	if !strings.Contains(table, "p50/p95/p99") || !strings.Contains(table, "ROBC") {
		t.Fatalf("percentile table malformed:\n%s", table)
	}
}

func approxEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
