package experiment

import (
	"reflect"
	"testing"
	"time"

	"mlorass/internal/routing"
)

// sweepTestConfig is a very small scenario so a full 21-cell grid stays
// test-suite friendly.
func sweepTestConfig() Config {
	cfg := DefaultConfig()
	cfg.AreaSideM = 5000
	cfg.NumRoutes = 6
	cfg.PeakHeadway = 20 * time.Minute
	cfg.Duration = time.Hour
	return cfg
}

func TestRepSeed(t *testing.T) {
	if RepSeed(42, 0) != 42 {
		t.Fatal("replication 0 must reuse the base seed so reps=1 reproduces plain runs")
	}
	seen := map[uint64]bool{}
	for _, base := range []uint64{0, 1, 2, 42, 1 << 60} {
		for rep := 0; rep < 8; rep++ {
			s := RepSeed(base, rep)
			if s != RepSeed(base, rep) {
				t.Fatal("RepSeed not deterministic")
			}
			if seen[s] {
				t.Fatalf("seed collision at base=%d rep=%d (seed %d)", base, rep, s)
			}
			seen[s] = true
		}
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: for the same
// seed set, a replicated sweep over many workers produces aggregates byte
// identical to the one-worker sweep's, with deterministic figure
// ordering regardless of completion order.
func TestParallelMatchesSerial(t *testing.T) {
	base := sweepTestConfig()
	serial, err := ParallelSweep(base, Urban, SweepOptions{Workers: 1, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParallelSweep(base, Urban, SweepOptions{Workers: 8, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(par))
	}
	// Figure order: gateway count outer, scheme inner, replication
	// innermost.
	i := 0
	for _, gw := range GatewaySweep() {
		for _, scheme := range Schemes() {
			p := par[i]
			if p.Gateways != gw || p.Scheme != scheme {
				t.Fatalf("cell %d out of figure order: gw=%d scheme=%v, want gw=%d scheme=%v",
					i, p.Gateways, p.Scheme, gw, scheme)
			}
			for rep, r := range p.Reps {
				if want := RepSeed(base.Seed, rep); p.Seeds[rep] != want || r.Config.Seed != want ||
					r.Config.NumGateways != gw || r.Config.Scheme != scheme {
					t.Fatalf("cell %d rep %d holds the run for gw=%d scheme=%v seed=%d",
						i, rep, r.Config.NumGateways, r.Config.Scheme, r.Config.Seed)
				}
			}
			i++
		}
	}
	if len(par) != i {
		t.Fatalf("got %d cells, want %d", len(par), i)
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if s.Scheme != p.Scheme || s.Gateways != p.Gateways || s.Environment != p.Environment {
			t.Fatalf("cell %d keys differ: %+v vs %+v", i, s, p)
		}
		if !reflect.DeepEqual(s.Seeds, p.Seeds) {
			t.Fatalf("cell %d seeds differ: %v vs %v", i, s.Seeds, p.Seeds)
		}
		if !reflect.DeepEqual(s.Agg, p.Agg) {
			t.Fatalf("cell %d aggregates differ:\n serial %+v\n parallel %+v", i, s.Agg, p.Agg)
		}
		for rep := range s.Reps {
			a, b := s.Reps[rep], p.Reps[rep]
			if a.Delivered != b.Delivered || a.Generated != b.Generated ||
				a.Delay.Mean() != b.Delay.Mean() ||
				a.Medium.Transmissions != b.Medium.Transmissions {
				t.Fatalf("cell %d rep %d results differ", i, rep)
			}
		}
	}
	// The rendered figure artefacts must match byte for byte.
	for _, render := range []func([]AggregatePoint) string{
		Fig8AggTable, Fig8MatchedTable, Fig9AggTable, Fig12AggTable, Fig13AggTable,
	} {
		if render(serial) != render(par) {
			t.Fatalf("rendered tables differ:\n%s\nvs\n%s", render(serial), render(par))
		}
	}
}

// TestParallelProgressStreams checks the progress callback: one update per
// completed replication with a monotone completion counter, even with many
// workers finishing out of order.
func TestParallelProgressStreams(t *testing.T) {
	base := sweepTestConfig()
	const reps = 2
	total := len(GatewaySweep()) * len(Schemes()) * reps
	var updates []CellUpdate
	if _, err := ParallelSweepFunc(base, Rural, SweepOptions{Workers: 6, Reps: reps},
		func(u CellUpdate) { updates = append(updates, u) }); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, u := range updates {
		n++
		if u.Completed != n {
			t.Fatalf("update %d carries Completed=%d", n, u.Completed)
		}
		if u.Total != total {
			t.Fatalf("Total = %d, want %d", u.Total, total)
		}
		if u.Result == nil {
			t.Fatal("progress update without a result")
		}
		if u.Rep < 0 || u.Rep >= reps {
			t.Fatalf("rep index %d out of range", u.Rep)
		}
		if u.Seed != RepSeed(base.Seed, u.Rep) {
			t.Fatalf("update seed %d != RepSeed(%d, %d)", u.Seed, base.Seed, u.Rep)
		}
	}
	if n != total {
		t.Fatalf("streamed %d updates, want %d", n, total)
	}
}

// TestParallelSweepPropagatesErrors checks a bad base config fails the sweep
// with a cell-identifying error instead of hanging the pool.
func TestParallelSweepPropagatesErrors(t *testing.T) {
	base := sweepTestConfig()
	base.Alpha = 2 // rejected by Validate
	if _, err := ParallelSweep(base, Urban, SweepOptions{Workers: 4, Reps: 2}); err == nil {
		t.Fatal("invalid config did not fail the sweep")
	}
}

// TestSeedSensitivity exercises the replication aggregator's reason to
// exist: the same scenario under different seeds must yield different but
// statistically compatible results.
func TestSeedSensitivity(t *testing.T) {
	cfg := sweepTestConfig()
	cfg.Scheme = routing.SchemeROBC
	cfg.Duration = 2 * time.Hour
	const reps = 4
	results := make([]*Result, reps)
	for rep := 0; rep < reps; rep++ {
		c := cfg
		c.Seed = RepSeed(cfg.Seed, rep)
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		results[rep] = r
	}
	distinct := false
	for _, r := range results[1:] {
		if r.Delivered != results[0].Delivered || r.Delay.Mean() != results[0].Delay.Mean() {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("different seeds produced identical replications")
	}
	agg := AggregateResults(results)
	if agg.Reps != reps {
		t.Fatalf("aggregated %d reps, want %d", agg.Reps, reps)
	}
	if agg.Delivered.CI95() <= 0 {
		t.Fatal("replication CI is zero although replications differ")
	}
	// Statistical compatibility: every replication stays within a loose
	// band around the cross-replication mean — seeds perturb, they do not
	// change the regime.
	mean := agg.Delivered.Mean()
	for rep, r := range results {
		if d := float64(r.Delivered); d < 0.5*mean || d > 1.5*mean {
			t.Fatalf("rep %d delivered %d, wildly off the replication mean %.0f", rep, r.Delivered, mean)
		}
	}
}

// TestAggregateResults pins the aggregation arithmetic on hand-built
// results.
func TestAggregateResults(t *testing.T) {
	mk := func(delivered int, generated uint64, delays ...float64) *Result {
		r := &Result{Delivered: delivered, Generated: generated}
		for _, d := range delays {
			r.Delay.Add(d)
			r.Hops.Add(1)
		}
		r.MsgSendsPerNode.Add(10)
		return r
	}
	a := AggregateResults([]*Result{
		mk(10, 20, 100, 200), // mean delay 150, ratio 50%
		mk(20, 20, 300, 500), // mean delay 400, ratio 100%
		nil,                  // skipped
	})
	if a.Reps != 2 {
		t.Fatalf("Reps = %d, want 2", a.Reps)
	}
	if got := a.Delivered.Mean(); got != 15 {
		t.Fatalf("mean delivered = %v, want 15", got)
	}
	if got := a.MeanDelayS.Mean(); got != 275 {
		t.Fatalf("mean of mean delays = %v, want 275", got)
	}
	if got := a.DeliveryPct.Mean(); got != 75 {
		t.Fatalf("mean delivery pct = %v, want 75", got)
	}
	if a.Delivered.CI95() <= 0 {
		t.Fatal("CI of differing replications must be positive")
	}
	if a.String() == "" {
		t.Fatal("empty aggregate summary")
	}
	one := AggregateResults([]*Result{mk(10, 20, 100)})
	if one.Delivered.CI95() != 0 {
		t.Fatal("single replication must report zero CI, not NaN")
	}
}

// TestAggTablesRender checks the replicated tables carry every scheme column
// and the rep count.
func TestAggTablesRender(t *testing.T) {
	base := sweepTestConfig()
	points, err := ParallelSweep(base, Urban, SweepOptions{Workers: 4, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{
		Fig8AggTable(points), Fig9AggTable(points), Fig12AggTable(points), Fig13AggTable(points),
	} {
		if table == "" {
			t.Fatal("empty aggregate table")
		}
		for _, s := range Schemes() {
			if !containsStr(table, s.String()) {
				t.Fatalf("table missing column %v:\n%s", s, table)
			}
		}
		if !containsStr(table, "2 rep(s)") {
			t.Fatalf("table does not state the replication count:\n%s", table)
		}
	}
	ratios := OverheadRatiosAgg(points)
	if len(ratios) != len(GatewaySweep()) {
		t.Fatalf("overhead ratios cover %d gateway counts, want %d", len(ratios), len(GatewaySweep()))
	}
	for gw, m := range ratios {
		for sch, v := range m {
			if v <= 0 {
				t.Fatalf("gw=%d %v overhead ratio %v not positive", gw, sch, v)
			}
		}
	}
}
