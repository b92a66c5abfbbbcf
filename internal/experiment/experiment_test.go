package experiment

import (
	"testing"
	"time"

	"mlorass/internal/gwplan"
	"mlorass/internal/lorawan"
	"mlorass/internal/routing"
)

// tinyConfig is a fast scenario for unit tests: a 2-hour horizon over a
// small dense town so every code path (contacts, disconnections, handovers,
// retries, collisions) is exercised in well under a second.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.AreaSideM = 5000
	cfg.NumRoutes = 8
	cfg.PeakHeadway = 15 * time.Minute
	cfg.NumGateways = 3
	cfg.Duration = 2 * time.Hour
	return cfg
}

func runTiny(t *testing.T, mut func(*Config)) *Result {
	t.Helper()
	cfg := tinyConfig()
	if mut != nil {
		mut(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res := runTiny(t, func(c *Config) { c.Scheme = scheme })
			if res.Generated == 0 {
				t.Fatal("no messages generated")
			}
			if res.Delivered == 0 {
				t.Fatal("no messages delivered")
			}
			if uint64(res.Delivered) > res.Generated {
				t.Fatalf("delivered %d > generated %d", res.Delivered, res.Generated)
			}
			if res.ActiveDevices == 0 {
				t.Fatal("no active devices")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	b := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	if a.Delivered != b.Delivered || a.Generated != b.Generated {
		t.Fatalf("same seed differs: %d/%d vs %d/%d", a.Delivered, a.Generated, b.Delivered, b.Generated)
	}
	if a.Delay.Mean() != b.Delay.Mean() {
		t.Fatalf("delay means differ: %v vs %v", a.Delay.Mean(), b.Delay.Mean())
	}
	if a.Medium.Transmissions != b.Medium.Transmissions {
		t.Fatalf("transmission counts differ")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := runTiny(t, nil)
	b := runTiny(t, func(c *Config) { c.Seed = 2 })
	if a.Generated == b.Generated && a.Delivered == b.Delivered &&
		a.Delay.Mean() == b.Delay.Mean() {
		t.Fatal("different seeds produced identical results")
	}
}

func TestNoRoutingHopsAlwaysOne(t *testing.T) {
	res := runTiny(t, nil) // default scheme is NoRouting
	if res.Hops.Min() != 1 || res.Hops.Max() != 1 {
		t.Fatalf("NoRouting hops [%v, %v], want exactly 1 (Fig. 12)", res.Hops.Min(), res.Hops.Max())
	}
	if res.HandoverAttempts != 0 {
		t.Fatalf("NoRouting attempted %d handovers", res.HandoverAttempts)
	}
}

func TestForwardingSchemesProduceHandovers(t *testing.T) {
	for _, scheme := range []routing.Scheme{routing.SchemeRCAETX, routing.SchemeROBC} {
		res := runTiny(t, func(c *Config) { c.Scheme = scheme })
		if res.HandoverAttempts == 0 {
			t.Errorf("%v made no handover attempts in a dense scenario", scheme)
		}
		if res.Hops.Max() < 2 && res.HandoverSuccesses > 0 {
			t.Errorf("%v moved messages but max hops = %v", scheme, res.Hops.Max())
		}
	}
}

func TestDelayNonNegativeAndConsistent(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	if res.Delay.Min() < 0 {
		t.Fatalf("negative delay %v", res.Delay.Min())
	}
	if res.Delay.N() != uint64(res.Delivered) {
		t.Fatalf("delay samples %d != delivered %d", res.Delay.N(), res.Delivered)
	}
	if res.DirectDelay.N()+res.RelayedDelay.N() != res.Delay.N() {
		t.Fatal("direct + relayed does not partition deliveries")
	}
}

func TestThroughputSeriesSumsToDelivered(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	if got := res.Throughput.Total(); got != res.Delivered {
		t.Fatalf("throughput series total %d != delivered %d", got, res.Delivered)
	}
}

func TestValidationRejectsBadConfigs(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad scheme", func(c *Config) { c.Scheme = 99 }},
		{"bad class", func(c *Config) { c.Class = 99 }},
		{"forwarding without overhearing class", func(c *Config) {
			c.Scheme = routing.SchemeROBC
			c.Class = lorawan.ClassA
		}},
		{"interval >= duration", func(c *Config) { c.MsgInterval = c.Duration }},
		{"bad strategy", func(c *Config) { c.GatewayStrategy = 99 }},
		{"negative alpha normalizes but 2 rejected", func(c *Config) { c.Alpha = 2 }},
		{"bad SF", func(c *Config) { c.SF = 42 }},
		{"duty > 1", func(c *Config) { c.DutyCycle = 1.5 }},
	}
	for _, tt := range muts {
		cfg := tinyConfig()
		tt.mut(&cfg)
		cfg.Normalize()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	var cfg Config
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("normalized zero config invalid: %v", err)
	}
	def := DefaultConfig()
	if cfg.Scheme != def.Scheme || cfg.MsgInterval != def.MsgInterval || cfg.Alpha != def.Alpha {
		t.Fatal("defaults not applied")
	}
	if cfg.D2DRangeM != Urban.D2DRangeM() {
		t.Fatalf("D2D range = %v, want urban default", cfg.D2DRangeM)
	}
}

func TestEnvironmentRanges(t *testing.T) {
	if Urban.D2DRangeM() != 500 || Rural.D2DRangeM() != 1000 {
		t.Fatal("environment d2d ranges wrong (Sec. VII-A6)")
	}
	if Urban.String() != "urban" || Rural.String() != "rural" {
		t.Fatal("environment names wrong")
	}
}

func TestRuralReachesFartherNeighbours(t *testing.T) {
	urban := runTiny(t, func(c *Config) {
		c.Scheme = routing.SchemeROBC
		c.Environment = Urban
	})
	rural := runTiny(t, func(c *Config) {
		c.Scheme = routing.SchemeROBC
		c.Environment = Rural
		c.D2DRangeM = 0
	})
	// With double the d2d range, rural sees at least as many handover
	// opportunities.
	if rural.HandoverAttempts < urban.HandoverAttempts {
		t.Fatalf("rural handover attempts %d < urban %d", rural.HandoverAttempts, urban.HandoverAttempts)
	}
}

func TestQueueClassAUsesLessRadio(t *testing.T) {
	modC := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	queueA := runTiny(t, func(c *Config) {
		c.Scheme = routing.SchemeROBC
		c.Class = lorawan.ClassQueueA
	})
	if queueA.RadioOnPerNode.Mean() >= modC.RadioOnPerNode.Mean() {
		t.Fatalf("Queue-based Class-A radio-on %.0fs not below Modified-C %.0fs (Sec. VII-C)",
			queueA.RadioOnPerNode.Mean(), modC.RadioOnPerNode.Mean())
	}
}

func TestRandomPlacementRuns(t *testing.T) {
	res := runTiny(t, func(c *Config) {
		c.GatewayStrategy = gwplan.Random
		c.Scheme = routing.SchemeROBC
	})
	if res.Delivered == 0 {
		t.Fatal("random placement delivered nothing")
	}
}

func TestCustomDataset(t *testing.T) {
	ds := lineDataset()
	res := runTiny(t, func(c *Config) {
		c.Dataset = ds
		c.NumGateways = 1
	})
	if res.ActiveDevices != len(ds.Trips) {
		t.Fatalf("active devices %d != trips %d", res.ActiveDevices, len(ds.Trips))
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries on the line dataset")
	}
}

func TestGatewayCountMonotonicity(t *testing.T) {
	// More gateways must not reduce NoRouting delivery substantially:
	// coverage only grows. Allow a small tolerance for collision noise.
	few := runTiny(t, func(c *Config) { c.NumGateways = 2 })
	many := runTiny(t, func(c *Config) { c.NumGateways = 12 })
	if float64(many.Delivered) < 0.9*float64(few.Delivered) {
		t.Fatalf("delivery dropped from %d to %d when adding gateways", few.Delivered, many.Delivered)
	}
}

func TestSweepHelpers(t *testing.T) {
	gws := GatewaySweep()
	if len(gws) < 5 {
		t.Fatalf("gateway sweep too small: %v", gws)
	}
	for i := 1; i < len(gws); i++ {
		if gws[i] <= gws[i-1] {
			t.Fatalf("gateway sweep not increasing: %v", gws)
		}
	}
	if PaperEquivalentGateways(gws[0]) != gws[0]*4 {
		t.Fatal("paper-equivalent scaling wrong")
	}
}

func TestFig7Data(t *testing.T) {
	active, hist, err := Fig7Data(1, 10, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 24 {
		t.Fatalf("active bins = %d", len(active))
	}
	if hist.N() == 0 {
		t.Fatal("empty duration histogram")
	}
}

func TestReportRenders(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	rep := res.Report()
	for _, want := range []string{"delivered", "delay", "hops", "handovers"} {
		if !containsStr(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if res.String() == "" {
		t.Fatal("empty one-line summary")
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(haystack, needle string) int {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

func TestRouteAwarePlacementEndToEnd(t *testing.T) {
	grid := runTiny(t, nil)
	aware := runTiny(t, func(c *Config) { c.GatewayStrategy = gwplan.RouteAware })
	if aware.Delivered == 0 {
		t.Fatal("route-aware placement delivered nothing")
	}
	// Gateways on the routes must not hurt delivery relative to a blind
	// grid in the same world.
	if float64(aware.Delivered) < 0.9*float64(grid.Delivered) {
		t.Fatalf("route-aware delivery %d well below grid %d", aware.Delivered, grid.Delivered)
	}
}

// BenchmarkRunQuickCell times one quick-scale ROBC run end to end, world
// build included: the per-cell cost a figure sweep pays 21 times per
// replication.
func BenchmarkRunQuickCell(b *testing.B) {
	withoutSortChecks(b)
	cfg := QuickConfig()
	cfg.Scheme = routing.SchemeROBC
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
