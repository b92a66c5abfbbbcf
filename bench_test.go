// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sec. VII). Each bench runs the corresponding experiment at a
// reduced-but-faithful scale and reports the figure's headline quantities as
// custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. cmd/expsweep runs the same experiments
// at full scale with pretty tables (README "Regenerating the paper's
// figures").
package mlorass_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mlorass"
	"mlorass/internal/experiment"
	"mlorass/internal/gwplan"
	"mlorass/internal/obs"
	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/telemetry"
)

// benchConfig is the reduced-scale scenario the benches run: a dense small
// world (density-preserving downscale) over 6 simulated hours spanning the
// morning ramp and midday plateau.
func benchConfig(seed uint64) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Seed = seed
	cfg.AreaSideM = 8000
	cfg.NumRoutes = 18
	cfg.PeakHeadway = 10 * time.Minute
	cfg.Duration = 6 * time.Hour
	cfg.NumGateways = 7
	return cfg
}

func runBench(b *testing.B, cfg experiment.Config) *experiment.Result {
	b.Helper()
	res, err := experiment.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig7ActiveBuses regenerates Fig. 7: the synthetic dataset's
// active-bus curve and shift-duration distribution.
func BenchmarkFig7ActiveBuses(b *testing.B) {
	var peak, total int
	for i := 0; i < b.N; i++ {
		active, hist, err := experiment.Fig7Data(1, 45, 6*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, n := range active {
			if n > peak {
				peak = n
			}
		}
		total = int(hist.N())
	}
	b.ReportMetric(float64(peak), "peak-buses")
	b.ReportMetric(float64(total), "shifts")
}

// BenchmarkFig8Delay regenerates Fig. 8: mean end-to-end delay per scheme at
// a low gateway density, urban and rural.
func BenchmarkFig8Delay(b *testing.B) {
	for _, env := range []experiment.Environment{experiment.Urban, experiment.Rural} {
		for _, scheme := range experiment.Schemes() {
			name := fmt.Sprintf("%s/%s", env, scheme)
			b.Run(name, func(b *testing.B) {
				var delay float64
				for i := 0; i < b.N; i++ {
					cfg := benchConfig(1)
					cfg.Environment = env
					cfg.D2DRangeM = 0
					cfg.Scheme = scheme
					delay = runBench(b, cfg).Delay.Mean()
				}
				b.ReportMetric(delay, "delay-s")
			})
		}
	}
}

// BenchmarkFig9Throughput regenerates Fig. 9: total messages delivered per
// scheme.
func BenchmarkFig9Throughput(b *testing.B) {
	for _, env := range []experiment.Environment{experiment.Urban, experiment.Rural} {
		for _, scheme := range experiment.Schemes() {
			name := fmt.Sprintf("%s/%s", env, scheme)
			b.Run(name, func(b *testing.B) {
				var delivered int
				for i := 0; i < b.N; i++ {
					cfg := benchConfig(1)
					cfg.Environment = env
					cfg.D2DRangeM = 0
					cfg.Scheme = scheme
					delivered = runBench(b, cfg).Delivered
				}
				b.ReportMetric(float64(delivered), "delivered")
			})
		}
	}
}

// BenchmarkFig10UrbanSeries regenerates Fig. 10: the urban per-10-minute
// arrival series; the reported metric is the daytime-window arrival count.
func BenchmarkFig10UrbanSeries(b *testing.B) {
	benchSeries(b, experiment.Urban)
}

// BenchmarkFig11RuralSeries regenerates Fig. 11: the rural arrival series.
func BenchmarkFig11RuralSeries(b *testing.B) {
	benchSeries(b, experiment.Rural)
}

func benchSeries(b *testing.B, env experiment.Environment) {
	for _, scheme := range experiment.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			var daytime int
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.Environment = env
				cfg.D2DRangeM = 0
				cfg.Scheme = scheme
				res := runBench(b, cfg)
				// The paper highlights the 20k–75k s window; the
				// 6 h bench covers its start.
				daytime = res.Throughput.WindowSum(2*time.Hour, 6*time.Hour)
			}
			b.ReportMetric(float64(daytime), "daytime-msgs")
		})
	}
}

// BenchmarkFig12Hops regenerates Fig. 12: mean hop count per scheme.
func BenchmarkFig12Hops(b *testing.B) {
	for _, scheme := range experiment.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			var hops, maxHops float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.Environment = experiment.Rural
				cfg.D2DRangeM = 0
				cfg.Scheme = scheme
				res := runBench(b, cfg)
				hops = res.Hops.Mean()
				maxHops = res.Hops.Max()
			}
			b.ReportMetric(hops, "hops")
			b.ReportMetric(maxHops, "max-hops")
		})
	}
}

// BenchmarkFig13Overhead regenerates Fig. 13: mean message copies sent per
// node; the forwarding schemes' paper band is 1.6–2.2x the baseline.
func BenchmarkFig13Overhead(b *testing.B) {
	for _, scheme := range experiment.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			var sends float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.Environment = experiment.Rural
				cfg.D2DRangeM = 0
				cfg.Scheme = scheme
				sends = runBench(b, cfg).MsgSendsPerNode.Mean()
			}
			b.ReportMetric(sends, "sends-per-node")
		})
	}
}

// BenchmarkAblationAlpha sweeps the EWMA weight α (Sec. IV-B): the
// adaptation-vs-stability trade the paper discusses.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.Scheme = routing.SchemeROBC
				cfg.Alpha = alpha
				delay = runBench(b, cfg).Delay.Mean()
			}
			b.ReportMetric(delay, "delay-s")
		})
	}
}

// BenchmarkAblationQueueClassA compares Modified Class-C against Queue-based
// Class-A (Sec. VII-C: on-par performance, some radio-on energy saved).
func BenchmarkAblationQueueClassA(b *testing.B) {
	for _, class := range []mlorass.DeviceClass{mlorass.ClassModifiedC, mlorass.ClassQueueA} {
		b.Run(class.String(), func(b *testing.B) {
			var radioOn, delivered float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.Scheme = routing.SchemeROBC
				cfg.Class = class
				res := runBench(b, cfg)
				radioOn = res.RadioOnPerNode.Mean()
				delivered = float64(res.Delivered)
			}
			b.ReportMetric(radioOn, "radio-on-s")
			b.ReportMetric(delivered, "delivered")
		})
	}
}

// BenchmarkAblationRandomGateways compares grid against random placement
// (Sec. VII-C's further observations).
func BenchmarkAblationRandomGateways(b *testing.B) {
	strategies := []struct {
		name     string
		strategy gwplan.Strategy
	}{
		{"grid", gwplan.Grid},
		{"random", gwplan.Random},
		{"route-aware", gwplan.RouteAware},
	}
	for _, st := range strategies {
		st := st
		b.Run(st.name, func(b *testing.B) {
			var delivered float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.Scheme = routing.SchemeROBC
				cfg.GatewayStrategy = st.strategy
				delivered = float64(runBench(b, cfg).Delivered)
			}
			b.ReportMetric(delivered, "delivered")
		})
	}
}

// BenchmarkParallelSweep measures the sweep engine's scaling: the same
// 21-cell figure grid run with one worker (the serial engine) and with a
// full worker pool. Every cell is an independently seeded simulation, so the
// speedup should track the worker count until the machine saturates.
func BenchmarkParallelSweep(b *testing.B) {
	sweepBase := func() experiment.Config {
		cfg := experiment.DefaultConfig()
		cfg.AreaSideM = 5000
		cfg.NumRoutes = 6
		cfg.PeakHeadway = 20 * time.Minute
		cfg.Duration = 2 * time.Hour
		return cfg
	}
	pool := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pool = append(pool, n)
	}
	for _, workers := range pool {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var delivered float64
			for i := 0; i < b.N; i++ {
				points, err := experiment.ParallelSweep(sweepBase(), experiment.Urban,
					experiment.SweepOptions{Workers: workers, Reps: 1})
				if err != nil {
					b.Fatal(err)
				}
				delivered = 0
				for _, p := range points {
					delivered += p.Agg.Delivered.Mean()
				}
			}
			b.ReportMetric(delivered, "delivered")
		})
	}
}

// BenchmarkTelemetryOverhead times the same scenario as every run records
// it (counters and delay/airtime histograms, tracing off) and fully traced
// to an in-memory sink; compare the sub-benchmarks' ns/op for the cost of
// tracing.
func BenchmarkTelemetryOverhead(b *testing.B) {
	variants := []struct {
		name      string
		configure func(*experiment.Config)
	}{
		{"recorders", func(cfg *experiment.Config) {}},
		{"traced", func(cfg *experiment.Config) {
			cfg.Telemetry.Trace = telemetry.NewTracer(&telemetry.MemSink{}, 1)
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var delivered int
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.Scheme = routing.SchemeROBC
				v.configure(&cfg)
				delivered = runBench(b, cfg).Delivered
			}
			b.ReportMetric(float64(delivered), "delivered")
		})
	}
}

// BenchmarkRunStoreSweep measures the resumable-sweep win: the same
// replicated grid against a cold store (simulate + persist every cell) and a
// warm one (load every cell). The warm/cold ratio is the recompute cost the
// artifact store deletes from repeated figure regeneration.
func BenchmarkRunStoreSweep(b *testing.B) {
	sweepBase := func() experiment.Config {
		cfg := experiment.DefaultConfig()
		cfg.AreaSideM = 5000
		cfg.NumRoutes = 6
		cfg.PeakHeadway = 20 * time.Minute
		cfg.Duration = 2 * time.Hour
		return cfg
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store, err := runstore.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := experiment.ParallelSweep(sweepBase(), experiment.Urban,
				experiment.SweepOptions{Reps: 2, Store: store}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := runstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiment.ParallelSweep(sweepBase(), experiment.Urban,
			experiment.SweepOptions{Reps: 2, Store: store}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			points, err := experiment.ParallelSweep(sweepBase(), experiment.Urban,
				experiment.SweepOptions{Reps: 2, Store: store})
			if err != nil {
				b.Fatal(err)
			}
			if points[0].Agg.Telemetry.Delay.N() == 0 {
				b.Fatal("cached cells lost telemetry")
			}
		}
	})
}

// BenchmarkObsOverhead proves the observability layer's budget: the same
// full-day sharded run with the live layer off (the shipped default — nil
// Spans/Live, the pre-obs hot path) and on (a flight recorder sinking every
// phase span plus a registry scraped at ~10 Hz, the `expsweep -listen` state).
// The acceptance bar is on within 2% of off; compare the sub-benchmarks'
// ns/op. One iteration is a full day: run with -benchtime 1x.
func BenchmarkObsOverhead(b *testing.B) {
	if testing.Short() {
		b.Skip("full-day run takes tens of seconds; skipped under -short")
	}
	base := func() experiment.Config {
		cfg := experiment.DefaultConfig()
		cfg.Scheme = routing.SchemeROBC
		cfg.Shards = 2
		return cfg
	}
	b.Run("off", func(b *testing.B) {
		var delivered int
		for i := 0; i < b.N; i++ {
			delivered = runBench(b, base()).Delivered
		}
		b.ReportMetric(float64(delivered), "delivered")
	})
	b.Run("on", func(b *testing.B) {
		var delivered int
		for i := 0; i < b.N; i++ {
			cfg := base()
			reg := obs.NewRegistry()
			flight := obs.NewFlightRecorder(0)
			cfg.Telemetry.Live = reg
			cfg.Telemetry.Spans = flight
			stop := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				tick := time.NewTicker(100 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						_ = reg.Snapshot()
					}
				}
			}()
			delivered = runBench(b, cfg).Delivered
			close(stop)
			<-scraped
			if flight.Recorded() == 0 {
				b.Fatal("instrumented run recorded no spans")
			}
		}
		b.ReportMetric(float64(delivered), "delivered")
	})
}
