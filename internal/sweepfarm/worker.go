package sweepfarm

import (
	"errors"
	"fmt"
	"time"
)

// Runner computes one cell and returns its artefact bytes. It must be
// deterministic in the cell: two workers (or two attempts) computing the
// same cell produce identical bytes, which is what makes at-least-once
// execution safe under content addressing.
type Runner func(c Cell) ([]byte, error)

// Phase marks the worker checkpoints the fault-injection harness can crash
// at — the three windows a real process death lands in.
type Phase uint8

const (
	// PhasePreClaim: before asking for a lease (nothing held).
	PhasePreClaim Phase = iota
	// PhaseMidCompute: lease held, artefact not yet written.
	PhaseMidCompute
	// PhasePostWrite: artefact durably written, completion not yet acked —
	// the window that forces duplicate-completion handling.
	PhasePostWrite
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePreClaim:
		return "pre-claim"
	case PhaseMidCompute:
		return "mid-compute"
	case PhasePostWrite:
		return "post-write"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Hooks intercepts worker checkpoints. Returning an error aborts the worker
// immediately — the injected analogue of kill -9 at that instant. A nil
// Hooks runs fault-free. Implementations may also stall (via their own
// clock) to model slow workers.
type Hooks interface {
	Phase(worker string, p Phase, c Cell) error
}

// ErrCrashed is returned by Worker.Run when a hook aborted it.
var ErrCrashed = errors.New("sweepfarm: worker crashed (injected)")

// ErrUnreachable is returned by Worker.Run when every transport call has
// failed for longer than WorkerConfig.GiveUp: the coordinator is presumed
// gone and the worker process should exit rather than poll forever.
var ErrUnreachable = errors.New("sweepfarm: coordinator unreachable")

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// ID names the worker in leases and events.
	ID string
	// Concurrency is the number of cells computed at once — the worker's
	// in-flight bound (backpressure; the coordinator also caps leases per
	// worker). Zero means 1.
	Concurrency int
	// Heartbeat is the lease-extension period; zero derives TTL/3 from
	// each granted lease.
	Heartbeat time.Duration
	// Poll is the idle wait when no cell is claimable or the transport
	// errored. Zero means 50 ms.
	Poll time.Duration
	// SendRetries is how many times a completion report is re-sent
	// through a lossy transport before the worker gives up and lets the
	// lease expire instead. Zero means 3.
	SendRetries int
	// GiveUp is how long the worker tolerates nothing but transport
	// failures before concluding the coordinator is gone and exiting with
	// ErrUnreachable — the supervision signal for a worker process whose
	// coordinator died or was partitioned away. Zero means never give up
	// (an in-process coordinator cannot vanish).
	GiveUp time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.SendRetries <= 0 {
		c.SendRetries = 3
	}
	return c
}

// Worker claims cells, computes them, publishes artefacts through the
// store's atomic-write path, and reports completion; heartbeats stream
// while a cell computes. Transport, store, clock and hooks are all
// injectable.
type Worker struct {
	cfg    WorkerConfig
	coord  Transport
	store  ArtifactStore
	run    Runner
	verify Verify
	clock  Clock
	hooks  Hooks
}

// NewWorker wires a worker. store may be nil only if every cell is keyless.
// A nil clock means the wall clock; a nil hooks runs fault-free.
func NewWorker(cfg WorkerConfig, coord Transport, store ArtifactStore, run Runner, verify Verify, clock Clock, hooks Hooks) *Worker {
	if clock == nil {
		clock = Wall()
	}
	return &Worker{cfg: cfg.withDefaults(), coord: coord, store: store, run: run, verify: verify, clock: clock, hooks: hooks}
}

// Run processes cells until the coordinator reports the sweep finished
// (returns nil) or an injected crash aborts the worker (ErrCrashed). With
// Concurrency > 1 it runs that many claim loops; a crash in any slot downs
// the whole worker, as a process death would.
func (w *Worker) Run() error {
	n := w.cfg.Concurrency
	if n == 1 {
		return w.slot()
	}
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errCh <- w.slot() }()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil && first == nil {
			first = err
			// A crash is process-wide; remaining slots are abandoned (in
			// reality they died with the process — their leases expire).
			return first
		}
	}
	return first
}

// slot is one claim-compute-complete loop.
func (w *Worker) slot() error {
	lastOK := w.clock.Now()
	for {
		if err := w.phase(PhasePreClaim, Cell{Index: -1}); err != nil {
			return err
		}
		rep, err := w.coord.Claim(ClaimRequest{Worker: w.cfg.ID})
		if err != nil {
			if w.cfg.GiveUp > 0 && w.clock.Now().Sub(lastOK) >= w.cfg.GiveUp {
				return fmt.Errorf("%w: no successful call for %v (last transport error: %v)",
					ErrUnreachable, w.cfg.GiveUp, err)
			}
			w.sleep(w.cfg.Poll)
			continue
		}
		lastOK = w.clock.Now()
		if rep.Done {
			return nil
		}
		if !rep.OK {
			w.sleep(w.cfg.Poll)
			continue
		}
		if err := w.process(rep); err != nil {
			return err
		}
		lastOK = w.clock.Now()
	}
}

// process computes and reports one leased cell.
func (w *Worker) process(lease ClaimReply) error {
	cell := lease.Cell
	stopHB := w.startHeartbeats(lease)
	defer stopHB()

	req := CompleteRequest{Worker: w.cfg.ID, LeaseID: lease.LeaseID, Cell: cell}
	data, cached, err := w.obtain(cell)
	switch {
	case errors.Is(err, ErrCrashed):
		return err
	case err != nil:
		req.Failed = err.Error()
	default:
		req.Cached = cached
		switch {
		case cell.Key == "":
			req.Artifact = data
		case w.store == nil:
			// A keyed cell needs the shared store to carry its artefact; a
			// worker started without one (a misconfigured remote process)
			// must fail the attempt loudly, not panic in publish.
			req.Failed = fmt.Sprintf("cell %d is store-backed (key %.12s…) but this worker has no artefact store", cell.Index, cell.Key)
		case !cached:
			if err := w.publish(cell, data); err != nil {
				req.Failed = fmt.Sprintf("publishing artefact: %v", err)
			}
		}
	}
	if req.Failed == "" {
		// The artefact is durable (or inline); the crash window between
		// write and ack is the classic duplicate-completion producer.
		if err := w.phase(PhasePostWrite, cell); err != nil {
			return err
		}
	}
	// Report through a possibly lossy transport: retry a few times, then
	// give up and let the lease expire (the sweep still converges — the
	// cell is re-leased and its artefact found in the store).
	for try := 0; ; try++ {
		if _, err := w.coord.Complete(req); err == nil {
			return nil
		}
		if try >= w.cfg.SendRetries {
			return nil
		}
		w.sleep(w.cfg.Poll)
	}
}

// obtain produces the cell's artefact: from the store when a verified copy
// already exists (resume, or another worker won the race), otherwise by
// computing it.
func (w *Worker) obtain(cell Cell) (data []byte, cached bool, err error) {
	if cell.Key != "" && w.store != nil {
		if d, ok, _ := w.store.Get(cell.Key); ok && w.verifyOK(cell, d) {
			return d, true, nil
		}
	}
	if err := w.phase(PhaseMidCompute, cell); err != nil {
		return nil, false, err
	}
	d, err := w.run(cell)
	if err != nil {
		return nil, false, err
	}
	return d, false, nil
}

// publish writes the artefact with one atomic Put (temp file + rename), so
// no reader ever sees a partial artefact. Concurrent writers of a key write
// the same bytes, and a torn or late write from any writer is caught by the
// coordinator's re-read and Verify, so no claim brackets the write.
func (w *Worker) publish(cell Cell, data []byte) error {
	return w.store.Put(cell.Key, data)
}

// verifyOK applies the verifier (nil verifier accepts everything).
func (w *Worker) verifyOK(cell Cell, data []byte) bool {
	return w.verify == nil || w.verify(cell, data) == nil
}

// startHeartbeats extends the lease on a period well inside its TTL until
// the returned stop is called. Heartbeat failures are ignored: a stale
// lease just means another worker took over, and the completion protocol
// already tolerates that. A configured period at or past the lease TTL is
// clamped to TTL/3: honouring it would guarantee every lease expires
// mid-compute and the sweep would thrash through retries without ever
// being told why.
func (w *Worker) startHeartbeats(lease ClaimReply) (stop func()) {
	period := heartbeatPeriod(w.cfg.Heartbeat, lease.TTL)
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		for {
			select {
			case <-stopCh:
				return
			case <-w.clock.After(period):
				_, _ = w.coord.Heartbeat(HeartbeatRequest{
					Worker: w.cfg.ID, LeaseID: lease.LeaseID, SentAt: w.clock.Now()})
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// heartbeatPeriod resolves the configured heartbeat period against the lease
// TTL it must keep alive. A period at or past the TTL can never land a beat
// in time, so it is clamped to TTL/3 (as is an unset period); with no TTL to
// derive from either, a one-second default applies.
func heartbeatPeriod(configured, ttl time.Duration) time.Duration {
	period := configured
	if period <= 0 || (ttl > 0 && period >= ttl) {
		period = ttl / 3
	}
	if period <= 0 {
		period = time.Second
	}
	return period
}

// phase runs the crash hook.
func (w *Worker) phase(p Phase, c Cell) error {
	if w.hooks == nil {
		return nil
	}
	if err := w.hooks.Phase(w.cfg.ID, p, c); err != nil {
		return fmt.Errorf("%w: %s at %s", ErrCrashed, w.cfg.ID, p)
	}
	return nil
}

// sleep waits d on the worker's clock.
func (w *Worker) sleep(d time.Duration) { <-w.clock.After(d) }
