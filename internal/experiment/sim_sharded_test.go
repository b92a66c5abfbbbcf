package experiment

import (
	"runtime"
	"testing"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/rng"
	"mlorass/internal/routing"
)

// The sharded engine's contract is shard-count and tile-layout invariance:
// the same config must produce bit-identical results for every Shards ≥ 1,
// every partition of the city, and every GOMAXPROCS. Shards = 1 is the
// reference (locked by its own golden); every test here compares against it.
// All tests run under the CI race job (`go test -race -run Shard ./...`).

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

// TestShardGoldenReport locks the shards=1 reference output the same way the
// serial engine's goldens are locked. The serial goldens themselves are
// untouched by the sharded engine (Shards=0 never enters it); this file is
// the sharded contract's anchor. Regenerate with -update.
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

// TestShardSerialUntouched: a Shards=0 config takes the serial engine and
// renders the committed pre-shard golden bytes — the "don't break working
// code" half of the contract, asserted directly.
func TestShardSerialUntouched(t *testing.T) {
	var rep string
	for _, scheme := range Schemes() {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = scheme
		cfg.Shards = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep += res.Report()
	}
	goldenCompare(t, "report_quick_seed1.golden", rep)
}

// TestShardSerialSameWorkload: the two engines draw different channel
// randomness but must run the same workload — the same devices active,
// churned and generating the same messages. bench/check.go's references
// match Generated exactly across engines on this guarantee.
func TestShardSerialSameWorkload(t *testing.T) {
	for name, mut := range shardTestVariants() {
		for seed := uint64(1); seed <= 3; seed++ {
			base := shardTestBase()
			mut(&base)
			base.Seed = seed
			var res [2]*Result
			for i := range res {
				cfg := base
				cfg.Shards = i
				r, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d shards=%d: %v", name, seed, i, err)
				}
				res[i] = r
			}
			s, k := res[0], res[1]
			if s.Generated != k.Generated || s.ActiveDevices != k.ActiveDevices || s.DeviceFailures != k.DeviceFailures {
				t.Errorf("%s seed %d: serial generated/active/failed %d/%d/%d, shards=1 %d/%d/%d",
					name, seed, s.Generated, s.ActiveDevices, s.DeviceFailures,
					k.Generated, k.ActiveDevices, k.DeviceFailures)
			}
		}
	}
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
