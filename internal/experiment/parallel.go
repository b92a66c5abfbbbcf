package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/telemetry"
)

// SweepOptions configures a sweep: ParallelSweep, ParallelSweepFunc and
// Grid.Sweep.
type SweepOptions struct {
	// Workers is the worker-pool size; values < 1 mean GOMAXPROCS.
	Workers int
	// Reps is the number of replications per cell, each with a seed
	// derived from the base config's via RepSeed; values < 1 mean 1. The
	// outage and ADR grids run one replication per cell whatever it says.
	Reps int
	// Store, when non-nil, backs the sweep with the run-artifact cache:
	// a cell whose (config, seed) key is already stored is loaded
	// instead of re-simulated, and every freshly simulated cell is
	// persisted — so repeating or resuming an interrupted sweep only
	// pays for the cells it has never computed. Cached cells reproduce
	// the original Result byte for byte in every aggregate table.
	Store *runstore.Store
}

// CellUpdate is one completed replication, streamed while a sweep runs.
type CellUpdate struct {
	Environment Environment
	Scheme      routing.Scheme
	Gateways    int
	// Label names the replication in its grid, as its cell span and
	// farm cell do (for the figure grid "urban/ROBC/gw=10/rep=0").
	Label string
	// Rep is the replication index within the cell, Seed its derived seed.
	Rep  int
	Seed uint64
	// Result is the completed run's measurements.
	Result *Result
	// Cached reports that the result was loaded from the run store
	// instead of simulated.
	Cached bool
	// Completed counts runs finished so far (including this one) out of
	// Total, for progress displays.
	Completed int
	Total     int
}

// AggregatePoint is one cell of a sweep grid: every replication's Result
// plus the collapsed cross-replication statistics. Environment, Scheme and
// Gateways are the cell's config; Fraction is set in the outage grid and
// Mode in the ADR grid.
type AggregatePoint struct {
	Environment Environment
	Scheme      routing.Scheme
	Gateways    int
	// Fraction is the fraction of gateways an outage-grid cell takes down
	// for one outage window.
	Fraction float64
	// Mode is an ADR-grid cell's MAC configuration (zero elsewhere).
	Mode ADRMode
	// Seeds holds the replication seeds in replication order.
	Seeds []uint64
	// Reps holds each replication's Result in replication order.
	Reps []*Result
	// Agg is the cross-replication aggregate of Reps.
	Agg *Aggregate
}

// rep0 returns the cell's replication-0 Result, nil when it has none.
func (p AggregatePoint) rep0() *Result {
	if len(p.Reps) == 0 {
		return nil
	}
	return p.Reps[0]
}

// RepSeed derives the seed of replication rep from a base seed.
// Replication 0 uses the base seed itself, so a single-replication sweep
// reproduces a plain Run(cfg) exactly; later replications mix the index
// through SplitMix64-style finalisation so nearby bases stay uncorrelated.
func RepSeed(base uint64, rep int) uint64 {
	if rep == 0 {
		return base
	}
	z := base + uint64(rep)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Grid is one sweep grid. Every grid lays out into labelled Config jobs in
// table order (layoutSweep) and runs through one in-process executor
// (Sweep), one farm adapter (Farm) and one renderer (Render).
type Grid int

const (
	// FigureGrid is the paper's Figs. 8/9/12/13 grid: gateway count ×
	// scheme, replicated.
	FigureGrid Grid = iota
	// OutageGrid is the outage-resilience grid: fraction of gateways down
	// × scheme. The paper never tests infrastructure failure; this grid
	// asks whether the forwarding schemes' delivery advantage survives it.
	OutageGrid
	// ADRGrid is the adaptive-data-rate grid: gateway count × MAC mode. The
	// paper fixes SF7 because "ADR degrades under mobility"; this grid
	// measures that claim, plus what confirmed traffic's downlink load
	// costs on the shared channel.
	ADRGrid
)

// sweepJob is one labelled (cell, replication) run of a sweep.
type sweepJob struct {
	cell  int // index into the AggregatePoint slice
	rep   int
	label string
	cfg   Config
	// cities is the sweep's shared set of generated cities.
	cities *citySet
}

// layoutSweep lays out grid g's cells and jobs for env in table order,
// outer axis first and replication innermost: gateway count × scheme for
// the figure grid, fraction down × scheme for the outage grid, gateway
// count × mode for the ADR grid. The outage and ADR grids run one
// replication per cell (their tables read replication 0). Both the
// in-process executor and the sweep farm enumerate a grid through this one
// function, so their jobs — and therefore their store keys, labels and
// output tables — are identical by construction. Every job shares one city
// set, so each replication's city is generated at most once per sweep.
func layoutSweep(g Grid, base Config, env Environment, reps int) (cells []AggregatePoint, jobs []sweepJob) {
	base.Environment = env
	base.D2DRangeM = 0 // re-derive from environment
	cities := &citySet{}
	add := func(p AggregatePoint, cfg Config, n int, name string) {
		p.Environment, p.Scheme, p.Gateways = env, cfg.Scheme, cfg.NumGateways
		p.Seeds, p.Reps = make([]uint64, n), make([]*Result, n)
		for rep := range n {
			cfg.Seed = RepSeed(base.Seed, rep)
			p.Seeds[rep] = cfg.Seed
			jobs = append(jobs, sweepJob{cell: len(cells), rep: rep, cfg: cfg, cities: cities,
				label: fmt.Sprintf("%s/rep=%d", name, rep)})
		}
		cells = append(cells, p)
	}
	switch g {
	case OutageGrid:
		for _, f := range OutageFractions() {
			for _, scheme := range Schemes() {
				cfg := base
				cfg.Scheme = scheme
				cfg.Disruption.GatewayOutageFraction = f
				add(AggregatePoint{Fraction: f}, cfg, 1, fmt.Sprintf("%v/%v/down=%.0f%%", env, scheme, 100*f))
			}
		}
	case ADRGrid:
		for _, gw := range GatewaySweep() {
			for _, mode := range ADRModes() {
				cfg := base
				cfg.NumGateways = gw
				cfg.MAC = mode.apply()
				add(AggregatePoint{Mode: mode}, cfg, 1, fmt.Sprintf("%v/%v/gw=%d", env, mode, gw))
			}
		}
	default:
		for _, gw := range GatewaySweep() {
			for _, scheme := range Schemes() {
				cfg := base
				cfg.NumGateways = gw
				cfg.Scheme = scheme
				add(AggregatePoint{}, cfg, max(reps, 1), fmt.Sprintf("%v/%v/gw=%d", env, scheme, gw))
			}
		}
	}
	return cells, jobs
}

// run executes the job through the run store (nil runs it plainly). When
// the config carries a span sink it emits one cell span: wall time, whether
// the store served the run (attr 1) or it was simulated (attr 0), and the
// job's label.
func (j sweepJob) run(store *runstore.Store, index int) (res *Result, cached bool, err error) {
	sink := j.cfg.Telemetry.Spans
	var tok telemetry.SpanToken
	if sink != nil {
		tok = sink.StartSpan()
	}
	res, cached, err = runThroughStore(store, j.cfg, j.cities)
	if sink != nil && err == nil {
		var attr int64
		if cached {
			attr = 1
		}
		sink.EndSpan(telemetry.SpanEnd{
			Token: tok, Name: "cell", Shard: index, At: j.cfg.Duration, Attr: attr, Label: j.label,
		})
	}
	return res, cached, err
}

// Sweep runs grid g for env across a pool of opts.Workers goroutines. Each
// job is independently seeded and shares no state but the city set, so jobs
// execute concurrently; results are slotted back into table order
// regardless of completion order, and each cell's replications are
// collapsed into an Aggregate. fn, when non-nil, receives one CellUpdate per
// completed job, in completion order, called sequentially from the pool's
// single collector goroutine. Once a job fails the remaining jobs are
// skipped, and the error names the lowest-index failing job by its label,
// so a failing sweep reports the same job no matter how completions
// interleave.
func (g Grid) Sweep(base Config, env Environment, opts SweepOptions, fn func(CellUpdate)) ([]AggregatePoint, error) {
	cells, jobs := layoutSweep(g, base, env, opts.Reps)
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	type done struct {
		idx    int
		res    *Result
		cached bool
		err    error
	}
	jobCh := make(chan int)
	doneCh := make(chan done)
	var (
		failed atomic.Bool // workers skip remaining jobs once set
		wg     sync.WaitGroup
	)
	for range min(workers, len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				d := done{idx: i}
				if !failed.Load() {
					d.res, d.cached, d.err = jobs[i].run(opts.Store, i)
				}
				doneCh <- d
			}
		}()
	}
	go func() {
		for i := range jobs {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		close(doneCh)
	}()

	completed, errIdx := 0, len(jobs)
	var firstErr error
	for d := range doneCh {
		switch {
		case d.err != nil:
			failed.Store(true)
			if d.idx < errIdx {
				errIdx, firstErr = d.idx, d.err
			}
		case d.res != nil: // nil: skipped after a failure elsewhere
			j := jobs[d.idx]
			cells[j.cell].Reps[j.rep] = d.res
			completed++
			if fn != nil {
				c := cells[j.cell]
				fn(CellUpdate{
					Environment: c.Environment,
					Scheme:      c.Scheme,
					Gateways:    c.Gateways,
					Label:       j.label,
					Rep:         j.rep,
					Seed:        c.Seeds[j.rep],
					Result:      d.res,
					Cached:      d.cached,
					Completed:   completed,
					Total:       len(jobs),
				})
			}
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("sweep %s: %w", jobs[errIdx].label, firstErr)
	}
	for i := range cells {
		cells[i].Agg = AggregateResults(cells[i].Reps)
	}
	return cells, nil
}

// ParallelSweep runs the figure grid — every scheme × gateway count for the
// given environment, replicated opts.Reps times with seeds derived via
// RepSeed — through FigureGrid.Sweep, in figure order (gateway count outer,
// scheme inner, replication innermost).
func ParallelSweep(base Config, env Environment, opts SweepOptions) ([]AggregatePoint, error) {
	return FigureGrid.Sweep(base, env, opts, nil)
}

// ParallelSweepFunc is ParallelSweep with streamed progress: fn, when
// non-nil, receives one CellUpdate per completed replication.
func ParallelSweepFunc(base Config, env Environment, opts SweepOptions, fn func(CellUpdate)) ([]AggregatePoint, error) {
	return FigureGrid.Sweep(base, env, opts, fn)
}

// Fig8AggTable renders the replicated mean end-to-end delay table (paper
// Fig. 8) with 95% confidence intervals across replications.
func Fig8AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 8: mean end-to-end delay [s] (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%7.1f ±%5.1f", a.MeanDelayS.Mean(), a.MeanDelayS.CI95())
		})
}

// Fig8PercentilesAggTable renders the pooled end-to-end delay percentiles
// (p50/p95/p99) per cell, computed from the exactly merged per-replication
// delay histograms — true population percentiles, not averaged
// per-replication percentiles. It goes beyond the paper's Fig. 8 mean ± CI:
// tail latency is the quantity a production deployment is provisioned by.
func Fig8PercentilesAggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 8 (percentiles): end-to-end delay p50/p95/p99 [s] (pooled across reps)",
		func(a *Aggregate) string {
			p50, p95, p99 := a.DelayPercentiles()
			return fmt.Sprintf("%5.1f/%5.0f/%5.0f", p50, p95, p99)
		})
}

// Fig8MatchedTable renders mean delay at matched delivery coverage from each
// cell's replication 0: for each gateway count, every scheme's mean over its
// K fastest deliveries, where K is the smallest delivery count among the
// schemes at that gateway count. This removes the survivorship bias of the
// plain mean (a forwarding scheme that rescues otherwise-undeliverable
// messages adds slow samples the baseline's mean omits) and is the fair
// delay comparison against the paper's 10-25 % reduction. It needs raw per-delivery samples, not aggregates, hence one
// replication. A cell without a replication-0 result renders "-", and a
// gateway count with none at all is left out.
func Fig8MatchedTable(points []AggregatePoint) string {
	var rep0 []AggregatePoint
	minDelivered := map[int]int{}
	for _, p := range points {
		r := p.rep0()
		if r == nil {
			continue
		}
		rep0 = append(rep0, p)
		if cur, ok := minDelivered[p.Gateways]; !ok || r.Delivered < cur {
			minDelivered[p.Gateways] = r.Delivered
		}
	}
	return gridTable(rep0, "Fig 8 (matched coverage): mean delay [s] over each scheme's K fastest deliveries", "",
		func(p AggregatePoint) string {
			return fmt.Sprintf("%13.1f", p.Reps[0].MatchedDelayMean(minDelivered[p.Gateways]))
		})
}

// Fig9AggTable renders replicated total throughput (paper Fig. 9).
func Fig9AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 9: total throughput [messages delivered] (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%7.0f ±%5.0f", a.Delivered.Mean(), a.Delivered.CI95())
		})
}

// Fig12AggTable renders the replicated mean hop count (paper Fig. 12).
func Fig12AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 12: mean hops per delivered message (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%6.2f ±%5.2f", a.MeanHops.Mean(), a.MeanHops.CI95())
		})
}

// Fig13AggTable renders the replicated per-node message overhead (paper
// Fig. 13).
func Fig13AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 13: mean messages sent per node (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%7.1f ±%5.1f", a.SendsPerNode.Mean(), a.SendsPerNode.CI95())
		})
}

// OverheadRatiosAgg returns, per gateway count, each forwarding scheme's
// replication-mean message-send overhead relative to NoRouting (the paper
// reports 1.6–2.2×).
func OverheadRatiosAgg(points []AggregatePoint) map[int]map[routing.Scheme]float64 {
	base := map[int]float64{}
	for _, p := range points {
		if p.Scheme == routing.SchemeNoRouting {
			base[p.Gateways] = p.Agg.SendsPerNode.Mean()
		}
	}
	out := map[int]map[routing.Scheme]float64{}
	for _, p := range points {
		if p.Scheme == routing.SchemeNoRouting {
			continue
		}
		b := base[p.Gateways]
		if b <= 0 {
			continue
		}
		if out[p.Gateways] == nil {
			out[p.Gateways] = map[routing.Scheme]float64{}
		}
		out[p.Gateways][p.Scheme] = p.Agg.SendsPerNode.Mean() / b
	}
	return out
}

// aggTable renders a gateways × schemes grid of aggregate cells, titled with
// the largest replication count among them.
func aggTable(points []AggregatePoint, title string, cell func(*Aggregate) string) string {
	reps := 0
	for _, p := range points {
		if p.Agg != nil && p.Agg.Reps > reps {
			reps = p.Agg.Reps
		}
	}
	return gridTable(points, title, fmt.Sprintf(", %d rep(s)", reps),
		func(p AggregatePoint) string {
			if p.Agg == nil {
				return "-"
			}
			return cell(p.Agg)
		})
}

// gridTable renders a gateways × schemes grid: one row per gateway count
// present in points, in sweep order, and "-" where a scheme has no point.
// The title line names the environment, followed by suffix.
func gridTable(points []AggregatePoint, title, suffix string, cell func(AggregatePoint) string) string {
	byKey := map[[2]int]AggregatePoint{}
	gwSet := map[int]bool{}
	var env Environment
	for _, p := range points {
		byKey[[2]int{p.Gateways, int(p.Scheme)}] = p
		gwSet[p.Gateways] = true
		env = p.Environment
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s environment%s\n", title, env, suffix)
	fmt.Fprintf(&b, "%-18s", "gateways (paper)")
	for _, s := range Schemes() {
		fmt.Fprintf(&b, " | %16s", s)
	}
	b.WriteByte('\n')
	for _, g := range GatewaySweep() {
		if !gwSet[g] {
			continue
		}
		fmt.Fprintf(&b, "%3d (%3d)         ", g, PaperEquivalentGateways(g))
		for _, s := range Schemes() {
			text := "-"
			if p, ok := byKey[[2]int{g, int(s)}]; ok {
				text = cell(p)
			}
			fmt.Fprintf(&b, " | %16s", text)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
