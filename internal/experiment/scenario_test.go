package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mlorass/internal/gwplan"
	"mlorass/internal/mobility"
	"mlorass/internal/routing"
	"mlorass/internal/tfl"
)

// tinyScenario returns a fast non-bus scenario config.
func tinyScenario(model MobilityModel) Config {
	cfg := tinyConfig()
	cfg.Scheme = routing.SchemeROBC
	cfg.Mobility.Model = model
	cfg.Mobility.NumNodes = 40
	return cfg
}

func runScenario(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRandomWaypointScenarioRuns(t *testing.T) {
	res := runScenario(t, tinyScenario(MobilityRandomWaypoint))
	if res.ActiveDevices != 40 {
		t.Fatalf("active devices %d, want all 40 (random-waypoint vehicles never rest)", res.ActiveDevices)
	}
	if res.Generated == 0 || res.Delivered == 0 {
		t.Fatalf("random waypoint generated %d / delivered %d", res.Generated, res.Delivered)
	}
}

func TestSensorGridScenarioRuns(t *testing.T) {
	cfg := tinyScenario(MobilitySensorGrid)
	res := runScenario(t, cfg)
	if res.Generated == 0 || res.Delivered == 0 {
		t.Fatalf("sensor grid generated %d / delivered %d", res.Generated, res.Delivered)
	}
	// Duty-cycled sensors are awake OnWindow/Period of the time, so they
	// must generate far fewer messages than an always-on population would.
	slots := uint64(cfg.Duration / cfg.MsgInterval)
	alwaysOn := uint64(cfg.Mobility.NumNodes) * slots
	if res.Generated*2 > alwaysOn {
		t.Fatalf("duty-cycled sensors generated %d of an always-on %d", res.Generated, alwaysOn)
	}
}

// TestSensorGridForwardingHappens exercises the overhear candidate plumbing
// under the hardest scenario for it — duty-cycled sensors flickering across
// index rebuilds while churn triggers active-list compactions — and requires
// that device-to-device forwarding still occurs.
func TestSensorGridForwardingHappens(t *testing.T) {
	cfg := tinyScenario(MobilitySensorGrid)
	// 150 nodes on a 5 km square puts grid neighbours ~385 m apart, inside
	// the 500 m urban d2d range; fewer would leave every pair out of reach.
	cfg.Mobility.NumNodes = 150
	cfg.Mobility.OnWindow = 30 * time.Minute
	cfg.NumGateways = 1
	cfg.Disruption.DeviceChurnFraction = 0.6 // force compactions mid-run
	res := runScenario(t, cfg)
	if res.HandoverAttempts == 0 {
		t.Fatal("no handover attempts in a dense duty-cycled grid: asleep sensors likely dropped from the candidate pool")
	}
}

// TestCrossModelDeterminism verifies the bit-identical-Result guarantee for
// each new mobility model and for disruption-enabled runs: same seed, same
// Report, same channel counters.
func TestCrossModelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"randomwaypoint", func() Config { return tinyScenario(MobilityRandomWaypoint) }},
		{"sensorgrid", func() Config { return tinyScenario(MobilitySensorGrid) }},
		{"disruption-buses", func() Config {
			cfg := tinyConfig()
			cfg.Scheme = routing.SchemeROBC
			cfg.Disruption.GatewayOutageFraction = 0.5
			cfg.Disruption.DeviceChurnFraction = 0.25
			return cfg
		}},
		{"disruption-randomwaypoint", func() Config {
			cfg := tinyScenario(MobilityRandomWaypoint)
			cfg.Disruption.GatewayOutageFraction = 0.4
			cfg.Disruption.DeviceChurnFraction = 0.2
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := runScenario(t, tc.cfg())
			b := runScenario(t, tc.cfg())
			if a.Report() != b.Report() {
				t.Fatalf("same seed, different reports:\n%s\nvs\n%s", a.Report(), b.Report())
			}
			if a.Medium.Transmissions != b.Medium.Transmissions ||
				a.Medium.Collisions != b.Medium.Collisions ||
				a.Generated != b.Generated || a.Delivered != b.Delivered {
				t.Fatalf("same seed, different counters: %+v vs %+v", a.Medium, b.Medium)
			}
		})
	}
}

func TestScenarioSeedSensitivity(t *testing.T) {
	for _, model := range []MobilityModel{MobilityRandomWaypoint, MobilitySensorGrid} {
		cfg := tinyScenario(model)
		a := runScenario(t, cfg)
		cfg.Seed = 99
		b := runScenario(t, cfg)
		if a.Generated == b.Generated && a.Delivered == b.Delivered && a.Delay.Mean() == b.Delay.Mean() {
			t.Errorf("%v: different seeds produced identical results", model)
		}
	}
}

func TestGatewayOutagesReduceDelivery(t *testing.T) {
	base := tinyConfig()
	healthy := runScenario(t, base)

	cfg := tinyConfig()
	cfg.Disruption.GatewayOutageFraction = 1
	cfg.Disruption.OutageDuration = cfg.Duration // every gateway down all run
	down := runScenario(t, cfg)
	if down.GatewayOutageWindows != cfg.NumGateways {
		t.Fatalf("outage windows %d, want one per gateway (%d)", down.GatewayOutageWindows, cfg.NumGateways)
	}
	if down.Delivered != 0 {
		t.Fatalf("delivered %d with every gateway down all run", down.Delivered)
	}
	if healthy.Delivered == 0 {
		t.Fatal("healthy baseline delivered nothing")
	}
}

func TestDeviceChurnKillsDevices(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = routing.SchemeROBC
	cfg.Disruption.DeviceChurnFraction = 0.5
	res := runScenario(t, cfg)
	if res.DeviceFailures == 0 {
		t.Fatal("no device failures scheduled at 50% churn")
	}
	baseline := runScenario(t, tinyConfig())
	if res.Generated >= baseline.Generated {
		t.Fatalf("churned run generated %d >= healthy %d", res.Generated, baseline.Generated)
	}
}

// runWithDevices runs cfg on the engine its Shards selects and returns the
// engine's device table alongside the result.
func runWithDevices(t *testing.T, cfg Config) (*Result, []*device) {
	t.Helper()
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Shards > 0 {
		res, diag := shardRun(t, cfg, nil)
		return res, diag.Devices
	}
	s, err := newSim(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	return res, s.devices
}

// TestChurnBeforeWindowNeverActivates: a device that churns out before its
// service window opens never enters service, so it is neither counted in
// ActiveDevices nor averaged into the per-node figures, on either engine.
func TestChurnBeforeWindowNeverActivates(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = routing.SchemeROBC
		cfg.Shards = shards
		cfg.Disruption.DeviceChurnFraction = 0.5
		res, devs := runWithDevices(t, cfg)
		plan, err := compileDisruption(&res.Config, res.Config.NumGateways, len(devs))
		if err != nil {
			t.Fatal(err)
		}
		diedFirst, active := 0, 0
		for id, d := range devs {
			if d == nil {
				continue
			}
			start, _ := d.node.Window()
			failAt := plan.DeviceFailAt[id]
			early := failAt >= 0 && failAt < start && start < cfg.Duration
			if early {
				diedFirst++
			}
			if !d.everActive {
				continue
			}
			active++
			if early {
				t.Errorf("shards=%d: device %d churned at %v, before its window opened at %v, yet entered service",
					shards, id, failAt, start)
			}
		}
		if diedFirst == 0 {
			t.Fatalf("shards=%d: no device churned before its window opened; the case is not exercised", shards)
		}
		if res.ActiveDevices != active {
			t.Errorf("shards=%d: ActiveDevices = %d, want %d", shards, res.ActiveDevices, active)
		}
	}
}

// TestDormantDevicesNotBuilt: a device is built exactly when its service
// window opens before the horizon, on either engine, and churn still
// counts the victims that were never built.
func TestDormantDevicesNotBuilt(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = routing.SchemeROBC
		cfg.Shards = shards
		cfg.Disruption.DeviceChurnFraction = 0.5
		res, devs := runWithDevices(t, cfg)
		fleet, _, err := buildFleet(&res.Config, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(devs) != fleet.Len() {
			t.Fatalf("shards=%d: %d device slots for %d fleet nodes", shards, len(devs), fleet.Len())
		}
		plan, err := compileDisruption(&res.Config, res.Config.NumGateways, len(devs))
		if err != nil {
			t.Fatal(err)
		}
		built, failures, dormantVictims := 0, 0, 0
		for id, d := range devs {
			start, _ := fleet.Node(id).Window()
			live := start < cfg.Duration
			if (d != nil) != live {
				t.Fatalf("shards=%d: device %d (window opens %v) built=%v", shards, id, start, d != nil)
			}
			if d != nil {
				built++
			}
			if f := plan.DeviceFailAt[id]; f >= 0 && f < cfg.Duration {
				failures++
				if !live {
					dormantVictims++
				}
			}
		}
		if built == 0 || built == len(devs) {
			t.Fatalf("shards=%d: %d of %d devices built; want some dormant, some live", shards, built, len(devs))
		}
		if dormantVictims == 0 {
			t.Fatalf("shards=%d: no dormant device churns; the count is not exercised", shards)
		}
		if res.DeviceFailures != failures {
			t.Errorf("shards=%d: DeviceFailures = %d, want %d (%d of them dormant)",
				shards, res.DeviceFailures, failures, dormantVictims)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad model", func(c *Config) { c.Mobility.Model = 99 }},
		{"route-aware with rwp", func(c *Config) {
			c.Mobility.Model = MobilityRandomWaypoint
			c.GatewayStrategy = gwplan.RouteAware
		}},
		{"dataset with sensor grid", func(c *Config) {
			c.Mobility.Model = MobilitySensorGrid
			c.Dataset = lineDataset()
		}},
		{"outage fraction above 1", func(c *Config) { c.Disruption.GatewayOutageFraction = 1.5 }},
		{"negative churn", func(c *Config) { c.Disruption.DeviceChurnFraction = -0.1 }},
	}
	for _, tc := range cases {
		cfg := tinyConfig()
		tc.mut(&cfg)
		cfg.Normalize()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestParseMobilityModel(t *testing.T) {
	for in, want := range map[string]MobilityModel{
		"":               MobilityBuses,
		"buses":          MobilityBuses,
		"randomwaypoint": MobilityRandomWaypoint,
		"rwp":            MobilityRandomWaypoint,
		"sensorgrid":     MobilitySensorGrid,
	} {
		got, err := ParseMobilityModel(in)
		if err != nil || got != want {
			t.Errorf("ParseMobilityModel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMobilityModel("teleport"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestMobilityNormalizeDefaults(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mobility.Model = MobilityRandomWaypoint
	cfg.Normalize()
	if cfg.Mobility.NumNodes == 0 || cfg.Mobility.SpeedMaxMPS == 0 || cfg.Mobility.Period == 0 {
		t.Fatalf("mobility defaults not filled: %+v", cfg.Mobility)
	}
	// The bus model must not grow spurious knobs: zero stays zero.
	bus := tinyConfig()
	bus.Normalize()
	if bus.Mobility != (MobilityConfig{}) {
		t.Fatalf("bus mobility config mutated by Normalize: %+v", bus.Mobility)
	}
}

// TestOutageSweepAndTable runs the resilience sweep at tiny scale and checks
// the table renders every fraction row with delivery falling as outages grow.
func TestOutageSweepAndTable(t *testing.T) {
	base := tinyConfig()
	base.Duration = time.Hour
	base.Disruption.OutageDuration = time.Hour // downed gateways stay down
	points, err := OutageGrid.Sweep(base, Urban, SweepOptions{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(OutageFractions())*len(Schemes()) {
		t.Fatalf("sweep returned %d points", len(points))
	}
	byFrac := map[float64]int{}
	for _, p := range points {
		if len(p.Reps) != 1 || p.Reps[0] == nil {
			t.Fatalf("want one result for %v down=%.1f, got %v", p.Scheme, p.Fraction, p.Reps)
		}
		if p.Scheme == routing.SchemeNoRouting {
			byFrac[p.Fraction] = p.Reps[0].Delivered
		}
	}
	if byFrac[0.8] >= byFrac[0] {
		t.Errorf("delivery did not fall under outage: healthy %d vs 80%% down %d", byFrac[0], byFrac[0.8])
	}
	table := OutageTable(points)
	for _, want := range []string{"Outage resilience", "0%", "80%", "NoRouting", "ROBC"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// cityGen returns the generator config buildFleet derives from cfg.
func cityGen(cfg Config) tfl.GenConfig {
	gc := tfl.DefaultGenConfig(cfg.Seed, cfg.NumRoutes, cfg.PeakHeadway)
	gc.Area = cfg.area()
	return gc
}

// TestCitySetSharesByKey: one generator config yields one shared dataset,
// equal to a fresh generation, and another seed yields another city.
func TestCitySetSharesByKey(t *testing.T) {
	var set citySet
	gc := cityGen(sweepTestConfig())
	a, err := set.dataset(gc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := set.dataset(gc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("the same GenConfig generated two datasets")
	}
	fresh, err := tfl.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, fresh) {
		t.Fatal("the shared dataset differs from a fresh generation")
	}
	gc.Seed++
	c, err := set.dataset(gc)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("a different seed returned the same dataset")
	}
	if len(set.cities) != 2 {
		t.Fatalf("set holds %d cities, want 2", len(set.cities))
	}
}

// TestCitySetConcurrentGeneratesOnce: 8 goroutines asking for 3 keys at once
// receive exactly 3 datasets, every asker of a key the same one. Run it
// under -race.
func TestCitySetConcurrentGeneratesOnce(t *testing.T) {
	var set citySet
	base := cityGen(sweepTestConfig())
	const goroutines, keys = 8, 3
	got := make([][keys]*tfl.Dataset, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				gc := base
				gc.Seed += uint64((g + k) % keys) // start on different keys
				ds, err := set.dataset(gc)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][(g+k)%keys] = ds
			}
		}()
	}
	wg.Wait()
	distinct := map[*tfl.Dataset]bool{}
	for g := range got {
		for k := range got[g] {
			if got[g][k] != got[0][k] {
				t.Fatalf("goroutine %d got a different dataset for key %d", g, k)
			}
			distinct[got[g][k]] = true
		}
	}
	if len(distinct) != keys || len(set.cities) != keys {
		t.Fatalf("%d datasets for %d keys (set holds %d)", len(distinct), keys, len(set.cities))
	}
}

// TestSweepSharesCityPerReplication: a sweep's jobs share one city set, it
// ends up holding one city per replication, and a cell run from the shared
// city encodes to the same artefact as a plain Run.
func TestSweepSharesCityPerReplication(t *testing.T) {
	const reps = 2
	_, jobs := layoutSweep(FigureGrid, sweepTestConfig(), Urban, reps)
	set := jobs[0].cities
	for _, j := range jobs {
		if j.cities != set {
			t.Fatal("a sweep's jobs do not share one city set")
		}
	}
	for _, j := range jobs[:2*reps] { // two cells, every replication
		shared, err := runIn(j.cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := encodeResult(shared)
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeResult(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("cell %d rep %d: the shared city changed the artefact", j.cell, j.rep)
		}
	}
	if len(set.cities) != reps {
		t.Fatalf("set holds %d cities after two cells of %d replications, want %d", len(set.cities), reps, reps)
	}
}

// BenchmarkCityBuild times a bus city's two build steps on their own, at
// quick and at paper scale: generating the synthetic timetable, and
// compiling it into a fleet.
func BenchmarkCityBuild(b *testing.B) {
	for _, scale := range []struct {
		name string
		cfg  Config
	}{{"quick", QuickConfig()}, {"paper", DefaultConfig()}} {
		gc := cityGen(scale.cfg)
		b.Run(scale.name+"/generate", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := tfl.Generate(gc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(scale.name+"/fleet", func(b *testing.B) {
			ds, err := tfl.Generate(gc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := mobility.NewFleet(ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
