// Command expsweep regenerates the paper's evaluation artefacts: the
// Fig. 8/9/12/13 gateway-density sweeps, the Fig. 10/11 throughput time
// series, the Fig. 7 dataset statistics, and the ablations (α sensitivity,
// Queue-based Class-A, random gateway placement).
//
// The sweeps are three grids of labelled runs: the figure grid (figs
// 8/9/12/13), the outage grid (-fig resilience) and the ADR grid (-fig adr).
// All three run on one path: a worker pool (-parallel, default GOMAXPROCS), the
// run-artifact store (-store), the progress line (-progress) and, across
// processes, the sweep farm (-serve/-connect). The figure grid can also
// replicate every cell across derived seeds (-reps), reporting each metric
// as mean ± 95% confidence interval instead of a one-seed point estimate.
//
// Beyond the paper's figures, the scenario engine adds -scenario (run any
// figure under random-waypoint or sensor-grid mobility instead of the bus
// timetable) and -fig resilience (the outage sweep: delivery ratio per
// scheme as a growing fraction of gateways goes down).
//
// The MAC subsystem adds -fig adr (the adaptive-data-rate sweep: the paper's
// fixed-SF7 baseline against SNR-margin ADR and ADR+confirmed traffic, per
// gateway density) and the -adr / -confirmed switches, which enable the MAC
// control plane under any other figure:
//
//	expsweep -fig adr -quick           # fixed-SF vs ADR vs ADR+confirmed
//	expsweep -fig 8 -quick -confirmed  # Fig 8 under confirmed traffic
//
// Usage:
//
//	expsweep -fig 8 -env urban         # one figure, one environment
//	expsweep -fig all                  # everything (long)
//	expsweep -fig 8 -quick             # reduced scale for a fast look
//	expsweep -fig 8 -parallel 8 -reps 5   # replicated parallel sweep
//	expsweep -fig 9 -scenario randomwaypoint   # non-timetabled mobility
//	expsweep -fig resilience -quick    # gateway-outage resilience table
//
// The telemetry subsystem adds -store (content-addressed run-artifact cache:
// repeated or interrupted sweeps skip already-computed cells), -trace
// (sampled per-packet JSONL/CSV event trace), and -percentiles (pooled
// p50/p95/p99 delay columns from exactly merged histograms):
//
//	expsweep -fig 8 -quick -reps 5 -store .runcache -percentiles
//	expsweep -fig 9 -quick -trace trace.jsonl -trace-sample 100
//
// The sharded event kernel adds -shards: every simulation in the sweep runs
// on N spatial tiles, one kernel goroutine per tile, with bit-identical
// results for every N ≥ 1 (see README "Sharded runs"):
//
//	expsweep -fig 8 -quick -shards 4   # intra-run parallelism, same bytes
//
// For performance work, -cpuprofile and -memprofile write pprof files on
// clean exit (see README "Performance"):
//
//	expsweep -fig 8 -quick -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof
//
// The observability layer adds -listen (serve a live HTML dashboard,
// /metrics Prometheus exposition, /spans flight-recorder dump, and
// /debug/pprof/* while the command runs), -progress (a single live status
// line for the sweeps), and -spans (dump the phase-span ring as
// JSONL on exit). See README "Observability":
//
//	expsweep -fig 8 -reps 5 -listen :9109    # watch at http://localhost:9109/
//	expsweep -fig 8 -quick -progress         # terminal status line
//	expsweep -fig 8 -quick -shards 4 -spans spans.jsonl
//
// The same binary splits any one sweep across processes over TCP through
// the crash-tolerant sweep farm (see README "Sweep farm"): -serve runs the
// coordinator, which leases cells, merges each result exactly once and
// prints the tables; -connect runs a disposable worker, any number of them.
// Both sides take the same sweep and config flags, and with -store a shared
// store directory:
//
//	expsweep -fig 8 -env urban -store /shared/cache -serve :7600           # coordinator
//	expsweep -fig 8 -env urban -store /shared/cache -connect host:7600     # worker
//	expsweep -fig adr -env urban -serve :7601                              # the ADR grid, storeless
//
// The coordinator's stdout is byte-identical to the single-process sweep's.
// A worker refuses any leased cell whose key or label differs from the grid
// its own flags derive, so a config mismatch fails loudly. Kill -9 a worker
// and its leases expire (-lease-ttl) and re-run elsewhere; a worker exits
// with an error once the coordinator has been unreachable for -giveup.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mlorass"
	"mlorass/internal/experiment"
	"mlorass/internal/gwplan"
	"mlorass/internal/obs"
	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "expsweep:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("expsweep", flag.ContinueOnError)
	var (
		fig         = fs.String("fig", "8", "figure to regenerate: 7 | 8 | 9 | 10 | 11 | 12 | 13 | adr | resilience | ablations | all")
		envName     = fs.String("env", "both", "environment: urban | rural | both")
		seed        = fs.Uint64("seed", 1, "random seed (replications derive theirs from it)")
		quick       = fs.Bool("quick", false, "reduced scale (shorter horizon, smaller fleet)")
		quiet       = fs.Bool("quiet", false, "suppress per-run progress lines")
		parallel    = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for the figure sweeps (figs 8/9/12/13, resilience, adr)")
		reps        = fs.Int("reps", 1, "replications per sweep cell (figs 8/9/12/13); tables report mean ± 95% CI")
		scenario    = fs.String("scenario", "buses", "mobility scenario: buses | randomwaypoint | sensorgrid")
		nodes       = fs.Int("nodes", 0, "node count for the randomwaypoint/sensorgrid scenarios (0 = default)")
		storeDir    = fs.String("store", "", "run-artifact store directory: sweep cells (figs 8/9/12/13, resilience, adr) already stored are loaded instead of re-simulated, fresh cells are persisted (resumable sweeps)")
		traceFile   = fs.String("trace", "", "write a sampled per-packet event trace to this file ('-' = stdout)")
		traceFormat = fs.String("trace-format", "jsonl", "trace encoding: jsonl | csv")
		traceSample = fs.Int("trace-sample", 1, "trace one in N messages (1 = every message; sampled messages trace completely)")
		percentiles = fs.Bool("percentiles", false, "also print pooled p50/p95/p99 delay columns for the figure sweeps")
		shards      = fs.Int("shards", 0, "run each simulation on the sharded event kernel with N spatial tiles (0 = classic serial engine; results are identical for every N >= 1)")
		adr         = fs.Bool("adr", false, "enable the network-server ADR loop (SNR-margin data-rate adaptation) for the run")
		confirmed   = fs.Bool("confirmed", false, "switch uplinks to confirmed traffic: downlink acks in RX1/RX2, retransmission backoff")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile to this file on clean exit")
		listen      = fs.String("listen", "", "serve live observability on this address (host:port) while the command runs: / is an HTML dashboard, /metrics a Prometheus exposition, /spans the flight-recorder dump, /debug/pprof/* profiling")
		progress    = fs.Bool("progress", false, "render the sweeps (figs 8/9/12/13, resilience, adr) as one live status line on stderr instead of per-replication lines")
		spansFile   = fs.String("spans", "", "dump the recorded phase spans as JSONL to this file on exit ('-' = stderr)")
		serve       = fs.String("serve", "", "coordinate one sweep (figs 8/9/12/13, resilience or adr; one -env) across processes: lease its cells to expsweep -connect workers on this address and print the tables here")
		connect     = fs.String("connect", "", "run as a worker process against an expsweep -serve coordinator at this address, computing up to 2 cells at once until the sweep is done (give it the coordinator's sweep and config flags)")
		workerID    = fs.String("id", "", "worker name in leases and events for -connect (default: hostname-pid)")
		giveUp      = fs.Duration("giveup", time.Minute, "with -connect: exit with an error after this long without one successful coordinator call (the supervision signal that the coordinator is gone)")
		drain       = fs.Duration("drain", 2*time.Second, "with -serve: keep answering workers for this long after the sweep completes, so connected workers learn it is done and exit cleanly")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "with -serve: cell lease lifetime between heartbeats; an expired lease (a dead worker) re-queues its cell")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected positional arguments %q (all options are flags)", fs.Args())
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel %d must be at least 1", *parallel)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d must be at least 1", *reps)
	}
	if *nodes < 0 {
		return fmt.Errorf("-nodes %d must be non-negative (0 = scenario default)", *nodes)
	}
	if *traceSample < 1 {
		return fmt.Errorf("-trace-sample %d must be at least 1 (1 traces every message)", *traceSample)
	}
	if *traceFormat != "jsonl" && *traceFormat != "csv" {
		return fmt.Errorf("unknown -trace-format %q (want jsonl | csv)", *traceFormat)
	}
	if *traceFile == "" && *traceSample != 1 {
		fmt.Fprintln(os.Stderr, "expsweep: note: -trace-sample has no effect without -trace")
	}
	if _, ok := sweepGrid(*fig); !ok && *fig != "all" && *progress {
		return fmt.Errorf("-progress renders sweep progress; -fig %s has no sweep cells (use figs 8/9/12/13, resilience, adr or all)", *fig)
	}
	if *progress && *quiet {
		return fmt.Errorf("-progress and -quiet are contradictory: one asks for a live status line, the other for silence")
	}
	if *serve != "" || *connect != "" {
		if *serve != "" && *connect != "" {
			return fmt.Errorf("-serve and -connect are exclusive: a process is the coordinator or a worker, not both")
		}
		if _, ok := sweepGrid(*fig); !ok {
			return fmt.Errorf("-serve/-connect farm one sweep (figs 8/9/12/13, resilience or adr); -fig %s runs in one process", *fig)
		}
		// Cell indexes restart per environment, so a remote worker cannot
		// tell which environment's grid a lease belongs to; the wire mode
		// pins one per process.
		if *envName != "urban" && *envName != "rural" {
			return fmt.Errorf("-serve/-connect need a single environment (-env urban or -env rural); %q is ambiguous over the wire", *envName)
		}
	}
	if *connect != "" {
		if *listen != "" {
			return fmt.Errorf("-connect is a worker process; -listen (observability) belongs on the -serve side, which sees every worker's events")
		}
		if *progress {
			return fmt.Errorf("-connect is a worker process; -progress belongs on the -serve side, which tracks the whole sweep")
		}
	}
	if *spansFile != "" && *spansFile != "-" && *spansFile == *traceFile {
		return fmt.Errorf("-spans and -trace both point at %q; the JSONL streams would interleave", *spansFile)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("opening -cpuprofile file: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing -cpuprofile file: %w", cerr)
			}
		}()
	}
	if *memprofile != "" {
		// Probe writability up front so a typo fails before a long sweep.
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			return fmt.Errorf("opening -memprofile file: %w", ferr)
		}
		defer func() {
			if err != nil {
				f.Close()
				return // failed run: no heap snapshot
			}
			runtime.GC() // settle allocations so the profile shows live heap
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = fmt.Errorf("writing -memprofile: %w", werr)
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing -memprofile file: %w", cerr)
			}
		}()
	}

	base := experiment.DefaultConfig()
	if *quick {
		base = experiment.QuickConfig()
	}
	base.Seed = *seed
	if *shards < 0 || *shards > 1024 {
		return fmt.Errorf("-shards %d outside [0, 1024] (0 = serial engine)", *shards)
	}
	base.Shards = *shards
	base.MAC.ADR = *adr
	base.MAC.Confirmed = *confirmed
	if *fig == "adr" && (*adr || *confirmed) {
		// The ADR figure sweeps the MAC modes itself; a base-level MAC
		// override would corrupt its fixed-SF baseline column.
		return fmt.Errorf("-fig adr sweeps the MAC modes itself; drop -adr/-confirmed")
	}
	model, err := experiment.ParseMobilityModel(*scenario)
	if err != nil {
		return err
	}
	base.Mobility.Model = model
	base.Mobility.NumNodes = *nodes
	if model == experiment.MobilityBuses && *nodes != 0 {
		return fmt.Errorf("-nodes applies to the randomwaypoint/sensorgrid scenarios; the %s fleet is sized by the timetable", model)
	}
	if model != experiment.MobilityBuses && base.GatewayStrategy == gwplan.RouteAware {
		return fmt.Errorf("-scenario %s cannot use route-aware gateway placement", model)
	}
	if *fig == "7" && model != experiment.MobilityBuses {
		return fmt.Errorf("fig 7 charts the bus timetable's statistics; run it with -scenario buses")
	}

	envs, err := parseEnvs(*envName)
	if err != nil {
		return err
	}

	var store *runstore.Store
	if *storeDir != "" {
		store, err = runstore.Open(*storeDir)
		if err != nil {
			return err
		}
	}
	tracer, err := openTracer(*traceFile, *traceFormat, *traceSample)
	if err != nil {
		return err
	}
	if tracer != nil {
		base.Telemetry.Trace = tracer
		// A failed flush must fail the command: a silently truncated
		// trace is worse than none.
		defer func() {
			if cerr := tracer.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trace: %w", cerr)
			}
		}()
	}

	// The observability layer: any of -listen/-progress/-spans turns on the
	// flight recorder and the live-scrape registry (both reach the engines
	// through runtime-only Telemetry fields that never touch the run-store
	// key or the results).
	var (
		flight  *obs.FlightRecorder
		metrics *obs.Registry
		tracker *obs.SweepTracker
	)
	if *listen != "" || *progress || *spansFile != "" {
		flight = obs.NewFlightRecorder(0)
		metrics = obs.NewRegistry()
		tracker = obs.NewSweepTracker()
		base.Telemetry.Spans = flight
		base.Telemetry.Live = metrics
		// A panicking sweep dumps its last spans before dying.
		defer flight.DumpOnPanic()
	}
	if *spansFile != "" {
		w := io.Writer(os.Stderr)
		if *spansFile != "-" {
			f, ferr := os.Create(*spansFile)
			if ferr != nil {
				return fmt.Errorf("opening -spans file: %w", ferr)
			}
			w = f
			defer func() {
				if cerr := f.Close(); cerr != nil && err == nil {
					err = fmt.Errorf("closing -spans file: %w", cerr)
				}
			}()
		}
		defer func() {
			if err == nil {
				if werr := flight.WriteJSONL(w); werr != nil {
					err = fmt.Errorf("writing -spans: %w", werr)
				}
			}
		}()
	}
	if *listen != "" {
		srv := &obs.Server{Registry: metrics, Flight: flight, Sweep: tracker,
			Title: "expsweep -fig " + *fig}
		url, stopSrv, serr := srv.Start(*listen)
		if serr != nil {
			return serr
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "expsweep: observability at %s/ (metrics, spans, pprof)\n", url)
	}

	sw := sweeper{workers: *parallel, reps: *reps, quiet: *quiet,
		store: store, percentiles: *percentiles,
		tracker: tracker, progress: *progress}

	switch {
	case *serve != "":
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		return sw.serveSweep(ln, *fig, base, envs[0], *leaseTTL, *drain)
	case *connect != "":
		id := *workerID
		if id == "" {
			id = defaultWorkerID()
		}
		return sw.connectSweep(*connect, *fig, base, envs[0], id, *giveUp)
	}

	switch *fig {
	case "7", "10", "11", "ablations":
		// These artefacts run outside the sweep engine; say so rather
		// than silently dropping the flags.
		if *reps > 1 || fs.Lookup("parallel").Value.String() != fs.Lookup("parallel").DefValue {
			fmt.Fprintf(os.Stderr, "expsweep: note: -parallel/-reps apply to the sweeps only; -fig %s runs single-seed, serial\n", *fig)
		}
		if store != nil {
			fmt.Fprintf(os.Stderr, "expsweep: note: -store caches sweep cells only; -fig %s always simulates\n", *fig)
		}
		if *percentiles {
			fmt.Fprintf(os.Stderr, "expsweep: note: -percentiles applies to the figure sweeps (figs 8/9/12/13) only\n")
		}
	}

	switch *fig {
	case "7":
		return fig7(base)
	case "8", "9", "12", "13", "resilience", "adr":
		return sw.sweep(*fig, base, envs)
	case "10":
		return series(base, experiment.Urban)
	case "11":
		return series(base, experiment.Rural)
	case "ablations":
		if model != experiment.MobilityBuses {
			return fmt.Errorf("the placement ablation needs the bus timetable; run -fig ablations with -scenario buses")
		}
		return ablations(base)
	case "all":
		if model == experiment.MobilityBuses {
			if err := fig7(base); err != nil {
				return err
			}
		}
		if err := sw.sweep("8", base, envs); err != nil {
			return err
		}
		if err := series(base, experiment.Urban); err != nil {
			return err
		}
		if err := series(base, experiment.Rural); err != nil {
			return err
		}
		if err := sw.sweep("resilience", base, envs); err != nil {
			return err
		}
		if *adr || *confirmed {
			// The ADR sweep needs its own fixed-SF baseline column.
			fmt.Fprintln(os.Stderr, "expsweep: note: skipping the adr figure under -adr/-confirmed (it sweeps the MAC modes itself)")
		} else if err := sw.sweep("adr", base, envs); err != nil {
			return err
		}
		if model != experiment.MobilityBuses {
			// Fig 7 and the placement ablation are timetable artefacts.
			fmt.Fprintf(os.Stderr, "expsweep: note: skipping fig 7 and ablations under -scenario %s (bus-timetable artefacts)\n", model)
			return nil
		}
		return ablations(base)
	default:
		return fmt.Errorf("unknown figure %q", *fig)
	}
}

// openTracer builds the per-packet trace pipeline for -trace: nil when
// tracing is off, otherwise a sampling tracer over a JSONL or CSV sink on
// the file (or stdout for "-"). The caller owns Close.
func openTracer(path, format string, sample int) (*telemetry.Tracer, error) {
	if path == "" {
		return nil, nil
	}
	var w io.Writer
	if path == "-" {
		// Hide stdout's Closer so the sink's Close only flushes.
		w = struct{ io.Writer }{os.Stdout}
	} else {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("opening trace file: %w", err)
		}
		w = f
	}
	var sink telemetry.Sink
	if strings.EqualFold(format, "csv") {
		sink = telemetry.NewCSVSink(w)
	} else {
		sink = telemetry.NewJSONLSink(w)
	}
	return telemetry.NewTracer(sink, sample), nil
}

func parseEnvs(name string) ([]experiment.Environment, error) {
	switch name {
	case "urban":
		return []experiment.Environment{experiment.Urban}, nil
	case "rural":
		return []experiment.Environment{experiment.Rural}, nil
	case "both":
		return []experiment.Environment{experiment.Urban, experiment.Rural}, nil
	default:
		return nil, fmt.Errorf("unknown environment %q", name)
	}
}

func fig7(base experiment.Config) error {
	active, hist, err := experiment.Fig7Data(base.Seed, base.NumRoutes, base.PeakHeadway)
	if err != nil {
		return err
	}
	fmt.Println("Fig 7a: active buses per hour")
	for h, n := range active {
		fmt.Printf("  %02d:00  %5d  %s\n", h, n, bar(n, maxInt(active)))
	}
	fmt.Println("Fig 7b: bus active-duration distribution (30 min bins)")
	counts := hist.Counts()
	for i, c := range counts {
		fmt.Printf("  %5.1fh  %5d  %s\n", hist.BinCenter(i)/3600, c, bar(c, maxInt(counts)))
	}
	return nil
}

// sweepGrid returns the sweep grid -fig fig runs; ok is false for a
// figure with no sweep cells.
func sweepGrid(fig string) (grid experiment.Grid, ok bool) {
	switch fig {
	case "8", "9", "12", "13":
		return experiment.FigureGrid, true
	case "resilience":
		return experiment.OutageGrid, true
	case "adr":
		return experiment.ADRGrid, true
	}
	return 0, false
}

// sweeper runs the sweep grids through the parallel engine, or across
// processes through the wire farm (wire.go).
type sweeper struct {
	workers     int
	reps        int
	quiet       bool
	store       *runstore.Store
	percentiles bool
	// Observability: tracker (when non-nil) feeds the dashboard/metrics
	// sweep gauges, progress switches the per-replication stderr lines to
	// one live status line.
	tracker  *obs.SweepTracker
	progress bool
}

// sweep runs -fig fig's grid for each environment and prints its tables.
func (sw sweeper) sweep(fig string, base experiment.Config, envs []experiment.Environment) error {
	grid, _ := sweepGrid(fig)
	for _, env := range envs {
		// Stats are cumulative since Open; report this sweep's delta.
		var before runstore.Stats
		if sw.store != nil {
			before = sw.store.Stats()
		}
		if sw.tracker != nil {
			sw.tracker.Begin(fmt.Sprintf("fig %s %s", fig, env), sw.workers)
		}
		var fn func(experiment.CellUpdate)
		if sw.tracker != nil || !sw.quiet {
			fn = func(u experiment.CellUpdate) {
				sw.tracker.CellDone(u.Completed, u.Total, u.Cached, u.Result.Telemetry)
				switch {
				case sw.progress:
					// One carriage-returned line, rewritten per cell.
					fmt.Fprintf(os.Stderr, "\r\x1b[K%s", sw.tracker.Status().Line())
				case !sw.quiet:
					from := ""
					if u.Cached {
						from = " (cached)"
					}
					fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s seed %d%s: %s\n",
						u.Completed, u.Total, u.Label, u.Seed, from, u.Result.String())
				}
			}
		}
		points, err := grid.Sweep(base, env,
			experiment.SweepOptions{Workers: sw.workers, Reps: sw.reps, Store: sw.store}, fn)
		sw.tracker.Finish()
		if sw.progress {
			fmt.Fprintln(os.Stderr) // seal the status line
		}
		if err != nil {
			return err
		}
		if sw.store != nil {
			st := sw.store.Stats()
			fmt.Fprintf(os.Stderr, "expsweep: store %s: %d loaded, %d simulated and persisted\n",
				sw.store.Dir(), st.Hits-before.Hits, st.Puts-before.Puts)
		}
		grid.Render(os.Stdout, points, sw.reps, sw.percentiles)
	}
	return nil
}

func series(base experiment.Config, env experiment.Environment) error {
	out, err := experiment.ThroughputSeries(base, env)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Fig %d: msgs arriving per %s over the day — %s",
		map[experiment.Environment]int{experiment.Urban: 10, experiment.Rural: 11}[env],
		base.ThroughputBin, env)
	fmt.Println(experiment.SeriesTable(out, base.ThroughputBin, title))
	return nil
}

func ablations(base experiment.Config) error {
	fmt.Println("Ablation: EWMA weight α (ROBC)")
	byAlpha, err := experiment.AblationAlpha(base, routing.SchemeROBC, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	if err != nil {
		return err
	}
	for _, a := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		r := byAlpha[a]
		fmt.Printf("  α=%.1f  delay %7.1fs  delivered %d\n", a, r.Delay.Mean(), r.Delivered)
	}

	fmt.Println("Ablation: Modified Class-C vs Queue-based Class-A (ROBC)")
	modC, queueA, err := experiment.AblationClass(base, routing.SchemeROBC)
	if err != nil {
		return err
	}
	saving := 1 - queueA.RadioOnPerNode.Mean()/modC.RadioOnPerNode.Mean()
	fmt.Printf("  Modified-C : delay %7.1fs  delivered %d  radio-on %s\n",
		modC.Delay.Mean(), modC.Delivered, time.Duration(modC.RadioOnPerNode.Mean()*float64(time.Second)).Round(time.Second))
	fmt.Printf("  Queue-A    : delay %7.1fs  delivered %d  radio-on %s  (saves %.0f%%)\n",
		queueA.Delay.Mean(), queueA.Delivered, time.Duration(queueA.RadioOnPerNode.Mean()*float64(time.Second)).Round(time.Second), 100*saving)

	fmt.Println("Ablation: gateway placement (ROBC)")
	grid, random, aware, err := experiment.AblationPlacement(base, routing.SchemeROBC)
	if err != nil {
		return err
	}
	fmt.Printf("  grid        : delay %7.1fs  delivered %d\n", grid.Delay.Mean(), grid.Delivered)
	fmt.Printf("  random      : delay %7.1fs  delivered %d\n", random.Delay.Mean(), random.Delivered)
	fmt.Printf("  route-aware : delay %7.1fs  delivered %d\n", aware.Delay.Mean(), aware.Delivered)
	return nil
}

func bar(v, max int) string {
	if max <= 0 {
		return ""
	}
	n := v * 40 / max
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

var _ = mlorass.DefaultConfig // keep the public API linked for doc purposes
