package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"mlorass/internal/experiment"
	"mlorass/internal/runstore"
	"mlorass/internal/sweepfarm"
	"mlorass/internal/sweepfarm/wire"
	"mlorass/internal/telemetry"
)

// wireInflight caps the live leases of each -connect worker and is also the
// worker's compute concurrency, so a worker never runs more cells than it
// may lease. It equals sweepfarm.LeaseConfig's MaxPerWorker default.
const wireInflight = 2

// farmCells enumerates fsweep's grid as farm cells. With a store the cells
// keep their content addresses and artefacts go through it; without one the
// keys are blanked and artefacts travel inline in completion messages.
func farmCells(fsweep *experiment.FarmSweep, store *runstore.Store) ([]sweepfarm.Cell, sweepfarm.ArtifactStore) {
	cells := fsweep.Cells()
	if store != nil {
		return cells, store
	}
	for i := range cells {
		cells[i].Key = ""
	}
	return cells, nil
}

// serveSweep runs one environment's grid of -fig fig as the coordinator half
// of a multi-process farm: cells are leased to expsweep -connect workers
// through ln, and the tables print here once every cell is done or
// quarantined.
// After the sweep completes the server keeps answering for the drain window
// so connected workers hear "done" and exit cleanly, instead of dying with
// ErrLost against a vanished coordinator. If serving stops first (an Accept
// error), no worker can reach the sweep any more and the error is returned.
func (sw sweeper) serveSweep(ln net.Listener, fig string, base experiment.Config, env experiment.Environment,
	leaseTTL, drain time.Duration) error {

	grid, _ := sweepGrid(fig)
	fsweep := grid.Farm(base, env, sw.reps)
	cells, artifacts := farmCells(fsweep, sw.store)
	sw.tracker.Begin(fmt.Sprintf("fig %s %s", fig, env), 0)

	// The coordinator emits events (and runs Absorb) under its lock, so the
	// handler below is single-threaded: lastSnap set by OnResult is consumed
	// by the Done event that immediately follows the same absorption.
	var lastSnap telemetry.Snapshot
	recovered := 0
	fsweep.OnResult = func(res *experiment.Result) { lastSnap = res.Telemetry }
	events := func(e sweepfarm.Event) {
		switch e.Kind {
		case sweepfarm.EventLeased:
			sw.tracker.FarmLeased(e.Worker)
		case sweepfarm.EventDone:
			sw.tracker.FarmSettled(e.Worker)
			sw.tracker.CellDone(e.Done, e.Total, e.Cached, lastSnap)
			lastSnap = telemetry.Snapshot{}
			if e.Cached {
				recovered++
			}
		case sweepfarm.EventDuplicate:
			sw.tracker.FarmSettled(e.Worker)
			sw.tracker.FarmDuplicate()
		case sweepfarm.EventRetry:
			sw.tracker.FarmSettled(e.Worker)
			sw.tracker.FarmRetry(e.Expired)
		case sweepfarm.EventQuarantined:
			sw.tracker.FarmSettled(e.Worker)
			sw.tracker.FarmQuarantined()
		}
		switch {
		case sw.progress:
			fmt.Fprintf(os.Stderr, "\r\x1b[K%s", sw.tracker.Status().Line())
		case sw.quiet:
		case e.Kind == sweepfarm.EventDone:
			from := ""
			if e.Cached {
				from = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s%s (%s)\n", e.Done, e.Total, e.Cell.Label, from, workerName(e.Worker))
		case e.Kind == sweepfarm.EventRetry:
			fmt.Fprintf(os.Stderr, "  retry %s attempt %d (%s): %s\n", e.Cell.Label, e.Attempt, workerName(e.Worker), e.Err)
		case e.Kind == sweepfarm.EventQuarantined:
			fmt.Fprintf(os.Stderr, "  QUARANTINED %s after %d attempts: %s\n", e.Cell.Label, e.Attempt, e.Err)
		}
	}

	coord, err := sweepfarm.NewCoordinator(cells, artifacts, nil, sweepfarm.CoordConfig{
		Lease:  sweepfarm.LeaseConfig{TTL: leaseTTL, MaxPerWorker: wireInflight, Seed: base.Seed},
		Verify: fsweep.Verify,
		Absorb: fsweep.Absorb,
		Events: events,
	})
	if err != nil {
		ln.Close()
		return err
	}
	srv := wire.NewServer(coord, wire.ServerConfig{
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "expsweep: "+format+"\n", args...) },
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "expsweep: coordinating fig %s %s on %s (%d cells; workers join with -connect)\n",
		fig, env, ln.Addr(), len(cells))

	select {
	case <-coord.DoneCh():
		time.Sleep(drain)
		srv.Close()
		err = <-serveErr
	case err = <-serveErr:
		srv.Close()
		err = fmt.Errorf("serving workers stopped before the sweep finished: %w", err)
	}

	rep := coord.Report()
	for i := 0; i < rep.Crashes; i++ {
		sw.tracker.FarmCrash()
	}
	sw.tracker.Finish()
	if sw.progress {
		fmt.Fprintln(os.Stderr) // seal the status line
	}
	if err != nil {
		return err
	}
	if sw.store != nil {
		// Remote workers persist into the shared store from their own
		// processes; this side only sees what it recovered vs merged.
		fmt.Fprintf(os.Stderr, "expsweep: store %s: %d recovered, %d computed by remote workers\n",
			sw.store.Dir(), recovered, rep.Done-recovered)
	}
	grid.Render(os.Stdout, fsweep.Points(), sw.reps, sw.percentiles)
	if gaps := rep.Gaps(); gaps != "" {
		// The explicit gap contract: a sweep missing cells says so on
		// stdout, right under the tables it could not fill.
		fmt.Print(gaps)
	}
	return nil
}

// connectSweep runs one worker process against an expsweep -serve
// coordinator. The worker derives the cell grid from its own flags and
// refuses any leased cell whose identity (key, label) does not match — the
// loud failure mode for a config mismatch between the two processes. It
// exits 0 once the coordinator reports the sweep done, and with an error if
// the coordinator stays unreachable for the give-up window.
func (sw sweeper) connectSweep(addr, fig string, base experiment.Config, env experiment.Environment,
	id string, giveUp time.Duration) error {

	grid, _ := sweepGrid(fig)
	fsweep := grid.Farm(base, env, sw.reps)
	local, artifacts := farmCells(fsweep, sw.store)
	run := func(c sweepfarm.Cell) ([]byte, error) {
		if c.Index < 0 || c.Index >= len(local) {
			return nil, fmt.Errorf("leased cell index %d is outside this worker's %d-cell grid — figure/env/scale flags disagree with the coordinator", c.Index, len(local))
		}
		if lc := local[c.Index]; lc.Key != c.Key || lc.Label != c.Label {
			return nil, fmt.Errorf("leased cell %d is %q (key %.12s) but this worker derives %q (key %.12s) — config or -store flags disagree with the coordinator",
				c.Index, c.Label, c.Key, lc.Label, lc.Key)
		}
		return fsweep.Run(c)
	}
	client := wire.NewClient(wire.ClientConfig{Addr: addr})
	defer client.Close()
	w := sweepfarm.NewWorker(sweepfarm.WorkerConfig{
		ID:          id,
		Concurrency: wireInflight,
		GiveUp:      giveUp,
	}, client, artifacts, run, fsweep.Verify, nil, nil)
	fmt.Fprintf(os.Stderr, "expsweep: worker %s computing fig %s %s via %s\n", id, fig, env, addr)
	if err := w.Run(); err != nil {
		return fmt.Errorf("worker %s: %w", id, err)
	}
	fmt.Fprintf(os.Stderr, "expsweep: worker %s: sweep complete\n", id)
	return nil
}

// defaultWorkerID names a -connect worker after its host and pid, so two
// workers on one machine (or twenty across a cluster) never collide.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// workerName labels a cell's completer in progress lines; cells recovered
// from the store have none.
func workerName(w string) string {
	if w == "" {
		return "store"
	}
	return w
}
