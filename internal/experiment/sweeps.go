package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mlorass/internal/gwplan"
	"mlorass/internal/lorawan"
	"mlorass/internal/routing"
	"mlorass/internal/stats"
	"mlorass/internal/tfl"
)

// Schemes lists the three evaluated forwarding schemes in figure order.
func Schemes() []routing.Scheme {
	return []routing.Scheme{routing.SchemeNoRouting, routing.SchemeRCAETX, routing.SchemeROBC}
}

// GatewaySweep returns the gateway counts of the figure sweeps. The counts
// are the scaled world's; multiplied by the density scale factor (4 for the
// default quarter-area world) they correspond to the paper's 40–100 axis.
func GatewaySweep() []int { return []int{10, 13, 15, 18, 20, 23, 25} }

// PaperEquivalentGateways converts a scaled gateway count to the paper's
// 600 km² axis (×4 for the default 150 km² world).
func PaperEquivalentGateways(n int) int { return n * 4 }

// OutageFractions lists the gateway-down fractions of the outage-resilience
// sweep (0 is the paper's permanently healthy baseline).
func OutageFractions() []float64 { return []float64{0, 0.2, 0.4, 0.6, 0.8} }

// OutageTable renders the outage grid: delivery ratio (and delivered
// counts) of each cell's replication 0 per scheme as the fraction of
// gateways down grows. Rows are the distinct fractions present in points,
// ascending, so callers sweeping custom fractions render in full.
func OutageTable(points []AggregatePoint) string {
	type key struct {
		frac   float64
		scheme routing.Scheme
	}
	byKey := map[key]*Result{}
	var fracs []float64
	seen := map[float64]bool{}
	var env Environment
	for _, p := range points {
		byKey[key{p.Fraction, p.Scheme}] = p.rep0()
		if !seen[p.Fraction] {
			seen[p.Fraction] = true
			fracs = append(fracs, p.Fraction)
		}
		env = p.Environment
	}
	sort.Float64s(fracs)
	var b strings.Builder
	fmt.Fprintf(&b, "Outage resilience: delivery ratio vs fraction of gateways down — %s environment\n", env)
	fmt.Fprintf(&b, "%-18s", "gateways down")
	for _, s := range Schemes() {
		fmt.Fprintf(&b, " | %16s", s)
	}
	b.WriteByte('\n')
	for _, f := range fracs {
		fmt.Fprintf(&b, "%-18s", fmt.Sprintf("%.0f%%", 100*f))
		for _, s := range Schemes() {
			r := byKey[key{f, s}]
			if r == nil {
				fmt.Fprintf(&b, " | %16s", "-")
				continue
			}
			fmt.Fprintf(&b, " | %7.1f%% (%5d)", 100*r.DeliveryRatio(), r.Delivered)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ThroughputSeries runs the Figs. 10–11 experiment: the per-10-minute
// arrival series over 24 hours at the highest gateway density, for each
// scheme, in the given environment.
func ThroughputSeries(base Config, env Environment) (map[routing.Scheme][]int, error) {
	out := map[routing.Scheme][]int{}
	for _, scheme := range Schemes() {
		cfg := base
		cfg.Environment = env
		cfg.D2DRangeM = 0
		cfg.NumGateways = GatewaySweep()[len(GatewaySweep())-1]
		cfg.Scheme = scheme
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("series %v/%v: %w", env, scheme, err)
		}
		out[scheme] = res.Throughput.Counts()
	}
	return out, nil
}

// SeriesTable renders a throughput time series grid (one row per bucket).
func SeriesTable(series map[routing.Scheme][]int, bin time.Duration, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-10s", title, "t[s]")
	for _, s := range Schemes() {
		fmt.Fprintf(&b, " | %10s", s)
	}
	b.WriteByte('\n')
	n := 0
	for _, s := range Schemes() {
		if len(series[s]) > n {
			n = len(series[s])
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-10d", int(bin.Seconds())*i)
		for _, s := range Schemes() {
			v := 0
			if i < len(series[s]) {
				v = series[s][i]
			}
			fmt.Fprintf(&b, " | %10d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig7Data returns the Fig. 7 dataset statistics: hourly active-bus counts
// and the trip-duration histogram (30-minute bins up to 10 h).
func Fig7Data(seed uint64, numRoutes int, peakHeadway time.Duration) (active []int, durations *stats.Histogram, err error) {
	ds, err := tfl.Generate(tfl.DefaultGenConfig(seed, numRoutes, peakHeadway))
	if err != nil {
		return nil, nil, err
	}
	active = ds.ActiveBuses(time.Hour)
	durations, err = stats.NewHistogram(0, 10*3600, 20)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range ds.TripDurations() {
		durations.Add(d.Seconds())
	}
	return active, durations, nil
}

// AblationAlpha sweeps the EWMA weight α (Sec. IV-B / VII discussion) for a
// fixed scenario and returns mean delay and throughput per α.
func AblationAlpha(base Config, scheme routing.Scheme, alphas []float64) (map[float64]*Result, error) {
	out := map[float64]*Result{}
	for _, a := range alphas {
		cfg := base
		cfg.Scheme = scheme
		cfg.Alpha = a
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("alpha %v: %w", a, err)
		}
		out[a] = res
	}
	return out, nil
}

// AblationClass compares Modified Class-C against Queue-based Class-A
// (Sec. VII-C: on-par performance, some radio-on energy saved).
func AblationClass(base Config, scheme routing.Scheme) (modC, queueA *Result, err error) {
	cfg := base
	cfg.Scheme = scheme
	cfg.Class = lorawan.ClassModifiedC
	modC, err = Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.Class = lorawan.ClassQueueA
	queueA, err = Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return modC, queueA, nil
}

// AblationPlacement compares grid, random, and route-aware gateway
// placement: the paper's "further observations" ablation plus its stated
// future-work direction (greedy maximum route coverage).
func AblationPlacement(base Config, scheme routing.Scheme) (grid, random, routeAware *Result, err error) {
	cfg := base
	cfg.Scheme = scheme
	cfg.GatewayStrategy = gwplan.Grid
	grid, err = Run(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.GatewayStrategy = gwplan.Random
	random, err = Run(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.GatewayStrategy = gwplan.RouteAware
	routeAware, err = Run(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return grid, random, routeAware, nil
}
