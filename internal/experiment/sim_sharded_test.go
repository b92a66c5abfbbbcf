package experiment

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/rng"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
)

// The sharded engine's contract is shard-count and tile-layout invariance:
// the same config must produce bit-identical results for every Shards ≥ 1,
// every partition of the city, and every GOMAXPROCS. Shards = 1 is the
// reference (locked by its own golden); every test here compares against it.
// All tests run under the CI race job (`go test -race -run Shard ./...`).

// Every merge of tile outboxes in this package's tests checks that each
// outbox arrives in merge order — with one tile, that the outbox used in
// place is already the window's order.
func init() { assertSortedRuns = true }

// withoutSortChecks turns assertSortedRuns off for benchmark b, so that it
// times runs as production executes them. Benchmarks run after every test,
// so no test runs without the check.
func withoutSortChecks(b *testing.B) {
	assertSortedRuns = false
	b.Cleanup(func() { assertSortedRuns = true })
}

// shardTestVariants spans the engine's cross-tile machinery: plain uplinks,
// handover/overhear forwarding, the keyed Class-A listen gate, the MAC
// subsystem (confirmed + ADR downlinks through the coordinator), and the
// disruption layer's intrinsic gateway/churn lookups.
func shardTestVariants() map[string]func(*Config) {
	return map[string]func(*Config){
		"norouting": func(c *Config) { c.Scheme = routing.SchemeNoRouting },
		"rcaetx":    func(c *Config) { c.Scheme = routing.SchemeRCAETX },
		"robc-queuea": func(c *Config) {
			c.Scheme = routing.SchemeROBC
			c.Class = lorawan.ClassQueueA
		},
		"mac-adr-confirmed": func(c *Config) {
			c.Scheme = routing.SchemeRCAETX
			c.MAC = MACConfig{Confirmed: true, ADR: true}
		},
		"disruption": func(c *Config) {
			c.Scheme = routing.SchemeRCAETX
			c.Disruption.GatewayOutageFraction = 0.5
			c.Disruption.DeviceChurnFraction = 0.25
		},
	}
}

func shardTestBase() Config {
	cfg := QuickConfig()
	cfg.Seed = 1
	cfg.Duration = time.Hour
	return cfg
}

// shardRun normalizes and validates cfg, as Run does, and runs it on the
// sharded engine, failing on error.
func shardRun(t *testing.T, cfg Config, assign func(id int, home geo.Point) int) (*Result, *shardDiag) {
	t.Helper()
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, diag, err := runSharded(cfg, assign, nil)
	if err != nil {
		t.Fatalf("shards=%d: %v", cfg.Shards, err)
	}
	return res, diag
}

// runShardedReport runs cfg on the sharded engine and returns the report
// bytes, failing on error or on any causality violation.
func runShardedReport(t *testing.T, cfg Config, assign func(id int, home geo.Point) int) string {
	t.Helper()
	res, diag := shardRun(t, cfg, assign)
	if diag.Causality != 0 {
		t.Fatalf("shards=%d: %d causality violations (boundary event before tile clock)",
			cfg.Shards, diag.Causality)
	}
	return res.Report()
}

// TestShardCountEquivalence: every shard count produces the byte-identical
// report, across every variant of the cross-tile machinery.
func TestShardCountEquivalence(t *testing.T) {
	for name, mut := range shardTestVariants() {
		t.Run(name, func(t *testing.T) {
			base := shardTestBase()
			mut(&base)
			base.Shards = 1
			ref := runShardedReport(t, base, nil)
			for _, n := range []int{2, 4, 8} {
				cfg := base
				cfg.Shards = n
				if got := runShardedReport(t, cfg, nil); got != ref {
					t.Errorf("shards=%d report differs from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s",
						n, ref, n, got)
				}
			}
		})
	}
}

// TestShardFullScaleEquivalence runs the paper-scale city (the full fleet
// over a 12 km side) for four hours. Regression for a divergence the quick
// configs never tripped: interference depended on per-pool prune order —
// a short frame resolving early evicted an interferer still overlapping a
// longer frame — so the interferer set changed with the partition. Only a
// dense channel with interleaved frame lengths exposes it.
func TestShardFullScaleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-scale city")
	}
	base := DefaultConfig()
	base.Scheme = routing.SchemeROBC
	base.Duration = 4 * time.Hour
	base.Shards = 1
	ref := runShardedReport(t, base, nil)
	for _, n := range []int{2, 8} {
		cfg := base
		cfg.Shards = n
		if got := runShardedReport(t, cfg, nil); got != ref {
			t.Errorf("shards=%d full-scale report differs from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s",
				n, ref, n, got)
		}
	}
}

// TestShardRandomBoundaryInvariance: the property half of the equivalence
// layer. Randomised tile assignments — shifted strip boundaries and fully
// random device→tile maps, including empty tiles — must not move a single
// bit of the result.
func TestShardRandomBoundaryInvariance(t *testing.T) {
	base := shardTestBase()
	base.Scheme = routing.SchemeRCAETX
	base.Shards = 1
	ref := runShardedReport(t, base, nil)

	src := rng.New(7)
	for trial := 0; trial < 6; trial++ {
		k := 2 + src.Intn(7)
		var assign func(id int, home geo.Point) int
		kind := "strips"
		switch trial % 3 {
		case 0:
			// Vertical strips with a random boundary offset.
			area := base.area()
			off := src.Uniform(0, area.Width())
			assign = func(_ int, home geo.Point) int {
				x := home.X - area.Min.X + off
				w := area.Width()
				for x >= w {
					x -= w
				}
				ti := int(float64(k) * x / w)
				if ti >= k {
					ti = k - 1
				}
				return ti
			}
		case 1:
			// Horizontal strips: an orthogonal cut of the same city.
			kind = "rows"
			area := base.area()
			assign = func(_ int, home geo.Point) int {
				ti := int(float64(k) * (home.Y - area.Min.Y) / area.Height())
				if ti < 0 {
					ti = 0
				}
				if ti >= k {
					ti = k - 1
				}
				return ti
			}
		case 2:
			// Fully random ownership: geometry-free, maximally adversarial
			// for the boundary-exchange machinery (every neighbour pair
			// may be split).
			kind = "random"
			perTrial := rng.New(rng.Key2(99, uint64(trial), uint64(k)))
			owners := map[int]int{}
			assign = func(id int, _ geo.Point) int {
				ti, ok := owners[id]
				if !ok {
					ti = perTrial.Intn(k)
					owners[id] = ti
				}
				return ti
			}
		}
		cfg := base
		cfg.Shards = k
		if got := runShardedReport(t, cfg, assign); got != ref {
			t.Errorf("trial %d (%s, k=%d): partition changed the result:\n--- reference\n%s\n--- got\n%s",
				trial, kind, k, ref, got)
		}
	}
}

// TestMessageIDsDensePerDevice: the delivery ledger's dense rows rely on
// every device numbering its messages (dev+1)<<32 | 1..n, consecutively and
// in generation order. A traced quick cell on two tiles, with forwarding and
// device churn, must generate exactly that.
func TestMessageIDsDensePerDevice(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scheme = routing.SchemeROBC
	cfg.Disruption.DeviceChurnFraction = 0.25
	cfg.Shards = 2
	sink := &telemetry.MemSink{}
	cfg.Telemetry.Trace = telemetry.NewTracer(sink, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceFailures == 0 || res.HandoverMsgs == 0 {
		t.Fatalf("cell had %d device failures and %d handovers; the test needs both",
			res.DeviceFailures, res.HandoverMsgs)
	}
	count := map[int]uint64{}
	for _, e := range sink.Events() {
		if e.Kind != telemetry.KindGenerate {
			continue
		}
		count[e.Dev]++
		if want := uint64(e.Dev+1)<<32 | count[e.Dev]; e.Msg != want {
			t.Fatalf("device %d's message %d generated at %v has ID %#x, want %#x",
				e.Dev, count[e.Dev], e.T, e.Msg, want)
		}
	}
	total := uint64(0)
	for _, n := range count {
		total += n
	}
	if total != res.Generated || len(count) < 2 {
		t.Fatalf("trace holds %d generations by %d devices; the run generated %d", total, len(count), res.Generated)
	}
}

// TestShardTraceInvariance: the per-packet trace is part of the tile
// engine's N-invariance contract. For every variant, a full-sampling trace
// at 1, 2 and 4 tiles and under a random layout must be the identical event
// stream, in non-decreasing time, with one event per counted trace event.
func TestShardTraceInvariance(t *testing.T) {
	record := func(t *testing.T, cfg Config, assign func(id int, home geo.Point) int) []telemetry.Event {
		t.Helper()
		sink := &telemetry.MemSink{}
		cfg.Telemetry.Trace = telemetry.NewTracer(sink, 1)
		res, _ := shardRun(t, cfg, assign)
		events := sink.Events()
		if n := res.Telemetry.Counters.TraceEvents; uint64(len(events)) != n {
			t.Fatalf("shards=%d: sink holds %d events, counter says %d", cfg.Shards, len(events), n)
		}
		for i := 1; i < len(events); i++ {
			if events[i].T < events[i-1].T {
				t.Fatalf("shards=%d: event %d at %v precedes event %d at %v",
					cfg.Shards, i, events[i].T, i-1, events[i-1].T)
			}
		}
		return events
	}
	for name, mut := range shardTestVariants() {
		t.Run(name, func(t *testing.T) {
			base := shardTestBase()
			mut(&base)
			base.Shards = 1
			ref := record(t, base, nil)
			if len(ref) == 0 {
				t.Fatal("trace is empty")
			}
			owners := rng.New(rng.Key2(5, uint64(len(name)), 3))
			random := func(int, geo.Point) int { return owners.Intn(3) }
			for _, run := range []struct {
				shards int
				assign func(id int, home geo.Point) int
			}{{2, nil}, {4, nil}, {3, random}} {
				cfg := base
				cfg.Shards = run.shards
				got := record(t, cfg, run.assign)
				if !slices.Equal(got, ref) {
					i := 0
					for i < min(len(got), len(ref)) && got[i] == ref[i] {
						i++
					}
					t.Errorf("shards=%d (random layout %v): trace differs from shards=1 at event %d of %d/%d",
						run.shards, run.assign != nil, i, len(got), len(ref))
				}
			}
		})
	}
}

// TestShardGOMAXPROCSStress hammers the boundary-inbox exchange at scheduler
// widths 1, 2, and 8 with a handover-heavy scenario on 8 tiles: a dense
// city, forwarding on, confirmed MAC downlinks crossing tiles every window.
// Identical bytes at every width proves the barriers, not scheduling luck,
// order the exchange.
func TestShardGOMAXPROCSStress(t *testing.T) {
	base := shardTestBase()
	base.Scheme = routing.SchemeRCAETX
	base.AreaSideM = 4000 // denser city: more cross-tile neighbours
	base.MAC = MACConfig{Confirmed: true, ADR: true}
	base.Shards = 8

	var ref string
	for i, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := runShardedReport(t, base, nil)
		runtime.GOMAXPROCS(prev)
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("GOMAXPROCS=%d changed the result:\n--- first\n%s\n--- got\n%s", procs, ref, got)
		}
	}
}

// TestShardLookaheadSafety is the lookahead-safety property test: across
// random transmission schedules (duty cycles from choked to unlimited,
// slot intervals from 2 to 25 minutes, MAC on and off, every shard
// count and strip/row layouts), no tile ever receives a boundary event
// with a timestamp earlier than its local clock.
func TestShardLookaheadSafety(t *testing.T) {
	src := rng.New(0xca05a117)
	duties := []float64{0.01, 0.3, 1.0}
	intervals := []time.Duration{2 * time.Minute, 9 * time.Minute, 25 * time.Minute}
	for trial := 0; trial < 8; trial++ {
		cfg := shardTestBase()
		cfg.Duration = 30 * time.Minute
		cfg.Scheme = routing.SchemeRCAETX
		cfg.Seed = uint64(trial + 1)
		cfg.DutyCycle = duties[src.Intn(len(duties))]
		cfg.MsgInterval = intervals[src.Intn(len(intervals))]
		cfg.Shards = 1 + src.Intn(8)
		if src.Intn(2) == 1 {
			cfg.MAC = MACConfig{Confirmed: true, ADR: true}
		}
		_, diag := shardRun(t, cfg, nil)
		if diag.Causality != 0 {
			t.Errorf("trial %d: duty=%v interval=%v shards=%d mac=%v: %d causality violations",
				trial, cfg.DutyCycle, cfg.MsgInterval, cfg.Shards, cfg.MAC.Enabled(), diag.Causality)
		}
		if cfg.MAC.Enabled() && diag.Lookahead > lorawan.DefaultRX1Delay {
			t.Errorf("trial %d: lookahead %v exceeds RX1Delay %v — downlink plans could demand the past",
				trial, diag.Lookahead, lorawan.DefaultRX1Delay)
		}
	}
}

// TestShardEquivalenceFigTables: the figure-sweep stdout block and the
// per-cell reports are shard-count invariant (the figure path goes through
// Run, proving the Config.Shards dispatch too).
func TestShardEquivalenceFigTables(t *testing.T) {
	render := func(shards int) string {
		t.Helper()
		cfg := shardTestBase()
		cfg.Shards = shards
		return oneRepFigTables(t, cfg, []int{10})
	}
	ref := render(1)
	for _, n := range []int{2, 4} {
		if got := render(n); got != ref {
			t.Errorf("fig tables differ at shards=%d:\n--- shards=1\n%s\n--- shards=%d\n%s", n, ref, n, got)
		}
	}
}

// TestShardEquivalenceOutageTable: the resilience figure is shard-count
// invariant under the full outage grid.
func TestShardEquivalenceOutageTable(t *testing.T) {
	render := func(shards int) string {
		t.Helper()
		cfg := shardTestBase()
		cfg.Shards = shards
		points, err := OutageGrid.Sweep(cfg, Urban, SweepOptions{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return OutageTable(points)
	}
	ref := render(1)
	if got := render(4); got != ref {
		t.Errorf("outage table differs at shards=4:\n--- shards=1\n%s\n--- shards=4\n%s", ref, got)
	}
}

// TestShardEquivalenceADRTable: the ADR figure is shard-count invariant.
func TestShardEquivalenceADRTable(t *testing.T) {
	render := func(shards int) string {
		t.Helper()
		cfg := adrGoldenConfig(1)
		cfg.Shards = shards
		points, err := ADRGrid.Sweep(cfg, Urban, SweepOptions{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ADRTable(points)
	}
	ref := render(1)
	if got := render(4); got != ref {
		t.Errorf("ADR table differs at shards=4:\n--- shards=1\n%s\n--- shards=4\n%s", ref, got)
	}
}

// TestShardGoldenReport locks the explicit one-tile run (Shards = 1) to
// report_quick_shards1.golden, the file TestGoldenQuickReports locks with
// Shards unset. This file is the tile contract's anchor; every shard count
// must reproduce it. Regenerate with -update.
func TestShardGoldenReport(t *testing.T) {
	var rep string
	for _, scheme := range Schemes() {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = scheme
		cfg.Shards = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep += res.Report()
	}
	goldenCompare(t, "report_quick_shards1.golden", rep)
}

// TestShardKernelLoopAllocInvariant extends the PR 4 hot-path allocation
// discipline to the per-shard kernel loop: doubling the simulated horizon
// (and so the window count) must not add per-window allocations — every
// outbox, arena, merge buffer, and sort is reused once warmed. The bound
// admits amortised buffer growth but fails on any per-window allocation
// (ingest records, trace merges, comparator closures all sit inside the
// loop; the windows differ by ~900 here, so even one alloc per window
// trips it).
func TestShardKernelLoopAllocInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement needs full runs")
	}
	measure := func(d time.Duration) (float64, int) {
		cfg := shardTestBase()
		cfg.Scheme = routing.SchemeRCAETX
		cfg.Duration = d
		cfg.Shards = 4
		var windows int
		allocs := testing.AllocsPerRun(3, func() {
			_, diag := shardRun(t, cfg, nil)
			windows = diag.Windows
		})
		return allocs, windows
	}
	a1, w1 := measure(30 * time.Minute)
	a2, w2 := measure(time.Hour)
	extraWindows := w2 - w1
	if extraWindows <= 0 {
		t.Fatalf("window counts did not grow: %d vs %d", w1, w2)
	}
	perWindow := (a2 - a1) / float64(extraWindows)
	if perWindow > 0.5 {
		t.Errorf("kernel loop allocates in steady state: %.2f allocs/window over %d extra windows (%.0f → %.0f)",
			perWindow, extraWindows, a1, a2)
	}
}

// TestShardSkipsIdleWindows: on a 1-tile quick fig-8 cell the window loop
// jumps over grid windows without work. Every grid window is either run or
// skipped, at least a quarter are skipped, no boundary event arrives before
// a tile's clock, and the report is the one the loop gives when it runs
// every window. At 20 gateways most uplinks land first time, so about half
// the windows are idle (at 10, about a fifth).
func TestShardSkipsIdleWindows(t *testing.T) {
	for _, scheme := range Schemes() {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = scheme
		cfg.NumGateways = 20
		cfg.Shards = 1
		cfg.Normalize()
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		run := func(dense bool) (*Result, *shardDiag) {
			e, err := newSharded(cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.dense = dense
			res, diag, err := e.execute()
			if err != nil {
				t.Fatal(err)
			}
			return res, diag
		}
		res, diag := run(false)
		ref, refDiag := run(true)
		grid := int((cfg.Duration + diag.Lookahead - 1) / diag.Lookahead)
		if diag.Windows+diag.Skipped != grid || refDiag.Windows != grid || refDiag.Skipped != 0 {
			t.Errorf("%v: ran %d + skipped %d windows (dense: %d + %d), grid has %d",
				scheme, diag.Windows, diag.Skipped, refDiag.Windows, refDiag.Skipped, grid)
		}
		if 4*diag.Skipped < grid {
			t.Errorf("%v: skipped %d of %d windows, want at least a quarter", scheme, diag.Skipped, grid)
		}
		if diag.Causality != 0 {
			t.Errorf("%v: %d causality violations", scheme, diag.Causality)
		}
		if got, want := res.Report(), ref.Report(); got != want {
			t.Errorf("%v: skipping idle windows changed the report:\n--- every window\n%s\n--- skipping\n%s",
				scheme, want, got)
		}
		t.Logf("%v: skipped %d of %d windows", scheme, diag.Skipped, grid)
	}
}

// TestMergeRuns: one run is returned in place without allocating, and 2–4
// random sorted runs merge to what sorting their concatenation gives.
func TestMergeRuns(t *testing.T) {
	cmp := func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	}
	one := [][2]int{{1, 0}, {2, 0}, {2, 1}}
	runs := [][][2]int{one}
	var got [][2]int
	if allocs := testing.AllocsPerRun(10, func() { got = mergeRuns(nil, runs, cmp) }); allocs != 0 {
		t.Errorf("merging one run allocates %.0f times", allocs)
	}
	if len(got) != len(one) || &got[0] != &one[0] {
		t.Error("merging one run did not return it in place")
	}

	src := rng.New(11)
	var buf [][2]int
	for trial := 0; trial < 200; trial++ {
		k := 2 + src.Intn(3)
		runs := make([][][2]int, k)
		var all [][2]int
		for i := range runs {
			for n := src.Intn(20); n > 0; n-- {
				// Keys collide across runs; the second field tells the
				// run apart, so the merge order is total.
				runs[i] = append(runs[i], [2]int{src.Intn(15), i})
			}
			slices.SortFunc(runs[i], cmp)
			all = append(all, runs[i]...)
		}
		slices.SortFunc(all, cmp)
		buf = mergeRuns(buf, runs, cmp)
		if !slices.Equal(buf, all) {
			t.Fatalf("trial %d (k=%d): merge %v, sort %v", trial, k, buf, all)
		}
	}
}

// TestShardEngineFingerprints locks the engine's output for every variant
// of the device protocol: the SHA-256 of Report() and of a full-sampling
// JSONL trace at Shards = 1, against testdata/engine_fingerprints.golden. A
// refactor of the device code must leave every line as it is. Regenerate
// with -update.
func TestShardEngineFingerprints(t *testing.T) {
	variants := shardTestVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		cfg := shardTestBase()
		variants[name](&cfg)
		cfg.Shards = 1
		trace := sha256.New()
		sink := telemetry.NewJSONLSink(trace)
		cfg.Telemetry.Trace = telemetry.NewTracer(sink, 1)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s shards=1 report %x\n", name, sha256.Sum256([]byte(res.Report())))
		fmt.Fprintf(&b, "%s shards=1 trace  %x\n", name, trace.Sum(nil))
	}
	goldenCompare(t, "engine_fingerprints.golden", b.String())
}
