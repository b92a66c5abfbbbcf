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

// SweepOptions configures ParallelSweep and ParallelSweepFunc.
type SweepOptions struct {
	// Workers is the worker-pool size; values < 1 mean GOMAXPROCS.
	Workers int
	// Reps is the number of replications per cell, each with a seed
	// derived from the base config's via RepSeed; values < 1 mean 1.
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

// AggregatePoint is one (environment, scheme, gateway-count) cell of a
// replicated figure sweep: every replication's Result plus the collapsed
// cross-replication statistics.
type AggregatePoint struct {
	Environment Environment
	Scheme      routing.Scheme
	Gateways    int
	// Seeds holds the replication seeds in replication order.
	Seeds []uint64
	// Reps holds each replication's Result in replication order.
	Reps []*Result
	// Agg is the cross-replication aggregate of Reps.
	Agg *Aggregate
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

// sweepJob is one (cell, replication) run of a sweep.
type sweepJob struct {
	cell int // index into the AggregatePoint slice
	rep  int
	cfg  Config
	// cities is the sweep's shared set of generated cities.
	cities *citySet
}

// runPool executes jobs 0..n-1 across a pool of workers (values < 1 mean
// GOMAXPROCS). run is called concurrently; every successful result is handed
// to onDone from the single collector goroutine, in completion order. Once
// any job fails the remaining jobs are skipped, and the lowest-index failure
// is reported as (index, error) so a failing sweep names the same job no
// matter how completions interleave; full success returns (-1, nil). Both
// figure and resilience sweeps run on this pool.
func runPool(n, workers int, run func(i int) (*Result, error), onDone func(i int, res *Result)) (int, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	type done struct {
		idx int
		res *Result
		err error
	}
	jobCh := make(chan int)
	doneCh := make(chan done)
	var (
		failed atomic.Bool // workers skip remaining jobs once set
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				if failed.Load() {
					doneCh <- done{idx: i}
					continue
				}
				res, err := run(i)
				doneCh <- done{idx: i, res: res, err: err}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		close(doneCh)
	}()

	firstErrIdx, firstErr := n, error(nil)
	for d := range doneCh {
		if d.err != nil {
			failed.Store(true)
			if d.idx < firstErrIdx {
				firstErrIdx, firstErr = d.idx, d.err
			}
			continue
		}
		if d.res == nil {
			continue // skipped after a failure elsewhere
		}
		onDone(d.idx, d.res)
	}
	if firstErr != nil {
		return firstErrIdx, firstErr
	}
	return -1, nil
}

// ParallelSweep runs the full figure grid — every scheme × gateway count for
// the given environment, replicated opts.Reps times with seeds derived via
// RepSeed — across a pool of opts.Workers goroutines. Each Run is
// independently seeded and shares no state, so cells execute concurrently;
// results are slotted back into deterministic figure order (gateway count
// outer, scheme inner, replication innermost) regardless of completion
// order, and each cell's replications are collapsed into an Aggregate.
func ParallelSweep(base Config, env Environment, opts SweepOptions) ([]AggregatePoint, error) {
	return ParallelSweepFunc(base, env, opts, nil)
}

// ParallelSweepFunc is ParallelSweep with streamed progress: fn, when
// non-nil, receives one CellUpdate per completed replication, in completion
// order, called sequentially from the pool's single collector goroutine.
func ParallelSweepFunc(base Config, env Environment, opts SweepOptions, fn func(CellUpdate)) ([]AggregatePoint, error) {
	// Lay out cells and jobs in figure order (shared with the sweep farm);
	// results land by index.
	cells, jobs := layoutSweep(base, env, opts.Reps)
	// The collector slots results and streams progress; runPool keeps the
	// lowest-index error so a failing sweep reports the same cell no
	// matter how completions interleave. cached[i] is written only by the
	// worker running job i and read by the single collector after that
	// job's done message, so the flags need no lock.
	completed := 0
	cached := make([]bool, len(jobs))
	ji, err := runPool(len(jobs), opts.Workers,
		func(i int) (*Result, error) {
			j := jobs[i]
			sink := j.cfg.Telemetry.Spans
			var tok telemetry.SpanToken
			if sink != nil {
				tok = sink.StartSpan()
			}
			res, hit, err := runThroughStore(opts.Store, j.cfg, j.cities)
			cached[i] = hit
			if sink != nil && err == nil {
				// One span per cell replication: wall time, whether the
				// store served it (attr 1) or it was simulated (attr 0),
				// and the cell identity. The label formats only on the
				// instrumented path.
				var attr int64
				if hit {
					attr = 1
				}
				c := cells[j.cell]
				sink.EndSpan(telemetry.SpanEnd{
					Token: tok, Name: "cell", Shard: i, At: j.cfg.Duration, Attr: attr,
					Label: fmt.Sprintf("%v/%v/gw=%d/rep=%d", c.Environment, c.Scheme, c.Gateways, j.rep),
				})
			}
			return res, err
		},
		func(i int, res *Result) {
			j := jobs[i]
			cells[j.cell].Reps[j.rep] = res
			completed++
			if fn != nil {
				c := cells[j.cell]
				fn(CellUpdate{
					Environment: c.Environment,
					Scheme:      c.Scheme,
					Gateways:    c.Gateways,
					Rep:         j.rep,
					Seed:        c.Seeds[j.rep],
					Result:      res,
					Cached:      cached[i],
					Completed:   completed,
					Total:       len(jobs),
				})
			}
		})
	if err != nil {
		c := cells[jobs[ji].cell]
		return nil, fmt.Errorf("sweep %v/%v/gw=%d rep=%d: %w",
			c.Environment, c.Scheme, c.Gateways, jobs[ji].rep, err)
	}
	for i := range cells {
		cells[i].Agg = AggregateResults(cells[i].Reps)
	}
	return cells, nil
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
		if len(p.Reps) == 0 || p.Reps[0] == nil {
			continue
		}
		rep0 = append(rep0, p)
		if cur, ok := minDelivered[p.Gateways]; !ok || p.Reps[0].Delivered < cur {
			minDelivered[p.Gateways] = p.Reps[0].Delivered
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
