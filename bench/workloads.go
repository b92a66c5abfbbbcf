package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mlorass/internal/experiment"
	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/sweepfarm"
	"mlorass/internal/sweepfarm/wire"
	"mlorass/internal/telemetry"
)

// workers is the executor width of every parallel workload: tiles, pool
// workers and farm workers alike. It matches the two cores the benchmark
// was calibrated on; each worker is a closed loop that takes its next cell
// only after finishing the previous one.
const workers = 2

// workerPoll is the farm workers' idle-poll period (the protocol default,
// stated so the traced clock can recognise poll sleeps).
const workerPoll = 50 * time.Millisecond

// scale sizes one op of every workload.
type scale struct {
	// Horizon is the simulated horizon of the day workloads.
	Horizon time.Duration `json:"horizon"`
	// Reps is the replication count of the sweeps' 7 × 3 figure grid.
	Reps int `json:"reps"`
}

// fullScale is the benchmark's op size. The day workloads simulate the
// paper-scale city from midnight to 10:00, when the fleet reaches its
// daytime size; the whole 24-hour day takes ~25 s on two cores, too long
// to take a median of several within one timed run. The sweeps run the
// quick fig-8 grid with 10 replications: 210 cells of ~8 ms each.
var fullScale = scale{Horizon: 10 * time.Hour, Reps: 10}

// workload is one benchmarked input set.
type workload struct {
	name string
	why  string
	// refGroup names the reference outcomes the op is checked against.
	refGroup string
	run      func(spec opSpec, in *instruments) (*opRun, error)
}

var workloads = []workload{
	{"day", "paper-scale ROBC city, midnight to 10:00, serial engine: the single-threaded sim layers do all the work",
		"day", runDay(0)},
	{"day-tiles", "the same run on the 2-tile engine: windowed import, merge, deliver and barriers across 2 cores",
		"day", runDay(workers)},
	{"sweep", "210 quick fig-8 cells on the 2-worker pool into a cold run store: per-cell fixed costs dominate",
		"sweep", runSweep},
	{"farm-tcp", "the same 210 cells through the farm coordinator over loopback TCP: leases, framing, store read-back",
		"sweep", runFarm},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSpec is what the parent hands a child process: one op of one workload.
type opSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Scale    scale  `json:"scale"`
	// WorkDir holds the op's temporary run store.
	WorkDir string `json:"work_dir"`
}

// instruments are the hooks one op installs.
type instruments struct {
	live firstAttach
	// Traced ops only.
	spans *spanRecorder
	farm  *farmTrace
}

func newInstruments(traced bool) *instruments {
	in := &instruments{}
	if traced {
		in.spans = newSpanRecorder()
		in.farm = &farmTrace{}
	}
	return in
}

// configure installs the op's hooks on a simulation config.
func (in *instruments) configure(cfg *experiment.Config) {
	cfg.Telemetry.Live = &in.live
	if in.spans != nil {
		cfg.Telemetry.Spans = in.spans
		cfg.Telemetry.Trace = telemetry.NewTracer(discardSink{}, 1<<30)
	}
}

// tally accumulates the Results one op produced and checks each of them.
type tally struct {
	mu     sync.Mutex
	cells  int
	simS   float64
	out    outcome
	c      telemetry.Counters
	tx     uint64
	coll   uint64
	hoTry  uint64
	hoOK   uint64
	failed int
	errs   []string
}

func (t *tally) add(r *experiment.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells++
	t.simS += r.Config.Duration.Seconds()
	if err := checkResult(r); err != nil {
		t.failLocked(1, fmt.Errorf("%s seed %d: %w", r.Config.Scheme, r.Config.Seed, err))
	}
	t.out.add(r)
	t.c.Merge(r.Telemetry.Counters)
	t.tx += r.Medium.Transmissions
	t.coll += r.Medium.Collisions
	t.hoTry += r.HandoverAttempts
	t.hoOK += r.HandoverSuccesses
}

// fail counts n failed ops under one error.
func (t *tally) fail(n int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(n, err)
}

func (t *tally) failLocked(n int, err error) {
	t.failed += n
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// opRun is what one workload op measured.
type opRun struct {
	start, end time.Time
	tally      tally
	// cellDurs are per-cell compute times in seconds: the Run call for the
	// day workloads, pool cell spans for the sweep, runner calls on the farm.
	cellDurs []float64
	// pool marks the sweep, whose cell spans cover all of its workers' time;
	// farm marks the farm, whose seams the traced run wraps.
	pool, farm   bool
	store        runstore.Stats
	bytesWritten int64
	events       farmEvents
}

// runDay runs the paper-scale day on the serial engine (shards = 0) or the
// tile engine.
func runDay(shards int) func(opSpec, *instruments) (*opRun, error) {
	return func(spec opSpec, in *instruments) (*opRun, error) {
		cfg := experiment.DefaultConfig()
		cfg.Scheme = routing.SchemeROBC
		cfg.Environment = experiment.Urban
		cfg.Duration = spec.Scale.Horizon
		cfg.Shards = shards
		cfg.Seed = spec.Seed
		in.configure(&cfg)
		run := &opRun{start: time.Now()}
		res, err := experiment.Run(cfg)
		run.end = time.Now()
		if err != nil {
			return nil, err
		}
		run.tally.add(res)
		run.cellDurs = []float64{run.end.Sub(run.start).Seconds()}
		return run, nil
	}
}

// sweepBase is the sweeps' base config: the quick fig-8 grid, urban.
func sweepBase(spec opSpec, in *instruments) experiment.Config {
	base := experiment.QuickConfig()
	base.Seed = spec.Seed
	in.configure(&base)
	return base
}

// runSweep runs the figure grid on the in-process pool, persisting every
// cell into a cold store.
func runSweep(spec opSpec, in *instruments) (*opRun, error) {
	base := sweepBase(spec, in)
	dir, err := os.MkdirTemp(spec.WorkDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	run := &opRun{pool: true, start: time.Now()}
	store, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	_, err = experiment.ParallelSweepFunc(base, experiment.Urban,
		experiment.SweepOptions{Workers: workers, Reps: spec.Scale.Reps, Store: store},
		func(u experiment.CellUpdate) { run.tally.add(u.Result) })
	run.end = time.Now()
	if err != nil {
		return nil, err
	}
	run.store = store.Stats()
	if run.bytesWritten, err = dirBytes(dir); err != nil {
		return nil, err
	}
	if in.spans != nil {
		run.cellDurs = in.spans.cellDurs
	}
	return run, nil
}

// runFarm runs the same grid through the farm coordinator behind a wire
// server on loopback, with store-backed cells and two wire-client workers.
func runFarm(spec opSpec, in *instruments) (*opRun, error) {
	base := sweepBase(spec, in)
	dir, err := os.MkdirTemp(spec.WorkDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	run := &opRun{farm: true, start: time.Now()}
	store, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	sweep := experiment.NewFarmSweep(base, experiment.Urban, spec.Scale.Reps)
	sweep.OnResult = run.tally.add
	cells := sweep.Cells()

	var coordStore, workerStore sweepfarm.ArtifactStore = store, store
	verify, absorb, runner := sweepfarm.Verify(sweep.Verify), sweepfarm.Absorb(sweep.Absorb), sweepfarm.Runner(sweep.Run)
	ft := in.farm
	if ft != nil {
		coordStore, workerStore = ft.wrapStore(store, false), ft.wrapStore(store, true)
		verify, absorb, runner = ft.wrapVerify(verify), ft.wrapAbsorb(absorb), ft.wrapRunner(runner)
	}
	coord, err := sweepfarm.NewCoordinator(cells, coordStore, nil, sweepfarm.CoordConfig{
		Verify: verify, Absorb: absorb, Events: run.events.observe,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var served sweepfarm.Transport = coord
	if ft != nil {
		served = ft.wrapCoordinator(coord)
	}
	srv := wire.NewServer(served, wire.ServerConfig{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	exits := make(chan error, workers)
	for i := 0; i < workers; i++ {
		cc := wire.ClientConfig{Addr: ln.Addr().String()}
		var clock sweepfarm.Clock
		if ft != nil {
			cc.Dial = ft.dial
			clock = pollClock{Clock: sweepfarm.Wall(), poll: workerPoll, f: ft}
		}
		client := wire.NewClient(cc)
		var t sweepfarm.Transport = client
		if ft != nil {
			t = ft.wrapClient(client)
		}
		w := sweepfarm.NewWorker(sweepfarm.WorkerConfig{
			ID: fmt.Sprintf("w%d", i), Concurrency: 1, Poll: workerPoll,
		}, t, workerStore, runner, verify, clock, nil)
		go func() {
			err := w.Run()
			client.Close()
			exits <- err
		}()
	}
	var werr error
	for i := 0; i < workers; i++ {
		if err := <-exits; err != nil && werr == nil {
			werr = err
		}
	}
	// Workers return once told the sweep is done, so nothing is in flight.
	srv.Close()
	serr := <-serveErr
	run.end = time.Now()
	if werr != nil {
		return nil, fmt.Errorf("farm worker: %w", werr)
	}
	if serr != nil {
		return nil, fmt.Errorf("farm server: %w", serr)
	}

	rep := coord.Report()
	if rep.Done != len(cells) || len(rep.Quarantined) > 0 {
		run.tally.fail(len(cells)-rep.Done, fmt.Errorf("farm absorbed %d of %d cells, %d quarantined: %s",
			rep.Done, len(cells), len(rep.Quarantined), rep.Gaps()))
	}
	// A retry (explicit failure, corrupt artefact or expired lease) or a
	// quarantine fails its op even when the sweep converges.
	if n := run.events.retries.Load() + run.events.quarantined.Load(); n > 0 {
		run.tally.fail(int(n), fmt.Errorf("farm: %d retries or quarantines", n))
	}
	run.store = store.Stats()
	if run.bytesWritten, err = dirBytes(dir); err != nil {
		return nil, err
	}
	if ft != nil {
		run.cellDurs = ft.cellDurs
	}
	return run, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
