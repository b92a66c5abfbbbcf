package sweepfarm

import (
	"fmt"
	"sync"
	"time"
)

// EventKind classifies coordinator events.
type EventKind uint8

const (
	// EventLeased: a cell was granted to a worker.
	EventLeased EventKind = iota
	// EventDone: a cell's artefact verified and was absorbed — emitted
	// exactly once per cell, the exactly-once merge signal.
	EventDone
	// EventDuplicate: a completion arrived for an already-done cell and
	// was discarded (lost ack, zombie worker, raced retry).
	EventDuplicate
	// EventRetry: an attempt failed (compute error, corrupt artefact, or
	// expired lease); the cell is backing off for another try.
	EventRetry
	// EventQuarantined: the cell hit its attempt cap and left the pool.
	EventQuarantined
)

// String names the kind for logs and dashboards.
func (k EventKind) String() string {
	switch k {
	case EventLeased:
		return "leased"
	case EventDone:
		return "done"
	case EventDuplicate:
		return "duplicate"
	case EventRetry:
		return "retry"
	case EventQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one observable coordinator transition, streamed to the
// CoordConfig.Events observer (the obs layer's feed).
type Event struct {
	Kind   EventKind
	Cell   Cell
	Worker string
	// Attempt counts failed attempts so far (Retry/Quarantined events).
	Attempt int
	// Expired marks a Retry/Quarantined caused by lease expiry rather
	// than an explicit failure report.
	Expired bool
	// Cached marks a Done cell whose artefact came from the store
	// (restart recovery or a worker-side cache hit).
	Cached bool
	// Err carries the failure message (Retry/Quarantined events).
	Err string
	// Done/Total count absorbed cells for progress displays.
	Done, Total int
}

// Verify checks an artefact's integrity before its cell may count as done.
// It must reject truncated, torn or otherwise damaged bytes; the farm
// turns a failed verification into a failed attempt (recompute), never a
// silently absorbed zero.
type Verify func(c Cell, data []byte) error

// Absorb merges a verified artefact into the sweep's result, exactly once
// per cell, called from the coordinator with its lock held (keep it quick;
// decode and slot, don't aggregate the world).
type Absorb func(c Cell, data []byte) error

// CoordConfig configures a Coordinator.
type CoordConfig struct {
	Lease LeaseConfig
	// Verify gates completion; nil accepts any bytes.
	Verify Verify
	// Absorb receives each cell's verified artefact exactly once; nil
	// discards them (the caller reads the store afterwards).
	Absorb Absorb
	// Events observes transitions; nil ignores them. Called synchronously
	// under the coordinator's lock — observers must not call back in.
	Events func(Event)
}

// Coordinator owns the lease table and the sweep's exactly-once merge. It
// implements Transport directly, so in-process workers call it without any
// wire, and every method is safe for concurrent use. All lease arithmetic
// uses the coordinator's clock alone; worker clocks are never consulted.
//
// A coordinator restarted over the same store recovers the sweep's progress
// from store state alone: NewCoordinator probes every keyed cell and
// absorbs the artefacts that already verify.
type Coordinator struct {
	mu    sync.Mutex
	cells []Cell
	table *leaseTable
	store ArtifactStore
	clock Clock
	cfg   CoordConfig
	// absorbedKeys dedupes the merge by store key: a key absorbed once is
	// never merged again, even if it reappears under another completion.
	absorbedKeys map[string]bool
	done         int
	doneCh       chan struct{}
	closed       bool
}

// NewCoordinator builds a coordinator over the sweep's cells and recovers
// any progress already persisted in the store: cells whose stored artefact
// verifies are absorbed immediately (as cached) — the restart path.
func NewCoordinator(cells []Cell, store ArtifactStore, clock Clock, cfg CoordConfig) (*Coordinator, error) {
	if clock == nil {
		clock = Wall()
	}
	c := &Coordinator{
		cells:        cells,
		table:        newLeaseTable(len(cells), cfg.Lease),
		store:        store,
		clock:        clock,
		cfg:          cfg,
		absorbedKeys: map[string]bool{},
		doneCh:       make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cell := range cells {
		if cell.Index != i {
			return nil, fmt.Errorf("sweepfarm: cell %d has index %d; cells must be indexed in order", i, cell.Index)
		}
		if cell.Key == "" || store == nil {
			continue
		}
		data, ok, err := store.Get(cell.Key)
		if err != nil || !ok {
			continue // unreadable store entries are recomputed, not fatal
		}
		if c.cfg.Verify != nil && c.cfg.Verify(cell, data) != nil {
			continue // corrupt artefact: leave pending, a worker repairs it
		}
		if err := c.absorb(cell, data, "", true); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// absorb runs the exactly-once merge for a verified artefact. Caller holds
// the lock.
func (c *Coordinator) absorb(cell Cell, data []byte, worker string, cached bool) error {
	if !c.table.completeOK(cell.Index) {
		c.emit(Event{Kind: EventDuplicate, Cell: cell, Worker: worker, Done: c.done, Total: len(c.cells)})
		return nil
	}
	if cell.Key != "" {
		if c.absorbedKeys[cell.Key] {
			// Same key under a different cell slot: the table transition
			// stands (the cell is done) but the merge already happened.
			c.emit(Event{Kind: EventDuplicate, Cell: cell, Worker: worker, Done: c.done, Total: len(c.cells)})
			return nil
		}
		c.absorbedKeys[cell.Key] = true
	}
	if c.cfg.Absorb != nil {
		if err := c.cfg.Absorb(cell, data); err != nil {
			return fmt.Errorf("sweepfarm: absorbing cell %d (%s): %w", cell.Index, cell.Label, err)
		}
	}
	c.done++
	c.emit(Event{Kind: EventDone, Cell: cell, Worker: worker, Cached: cached, Done: c.done, Total: len(c.cells)})
	c.checkFinished()
	return nil
}

// emit streams an event to the observer.
func (c *Coordinator) emit(e Event) {
	if c.cfg.Events != nil {
		c.cfg.Events(e)
	}
}

// checkFinished closes the done channel once. Caller holds the lock.
func (c *Coordinator) checkFinished() {
	if !c.closed && c.table.finished() {
		c.closed = true
		close(c.doneCh)
	}
}

// sweepExpired processes lease expiries at now. Caller holds the lock.
func (c *Coordinator) sweepExpired(now time.Time) {
	c.table.expire(now, func(idx int, worker string, quarantined bool) {
		r := &c.table.recs[idx]
		kind := EventRetry
		if quarantined {
			kind = EventQuarantined
		}
		c.emit(Event{Kind: kind, Cell: c.cells[idx], Worker: worker,
			Attempt: r.attempts, Expired: true, Err: r.lastErr,
			Done: c.done, Total: len(c.cells)})
	})
	c.checkFinished()
}

// Claim implements Transport.
func (c *Coordinator) Claim(req ClaimRequest) (ClaimReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	c.sweepExpired(now)
	if c.table.finished() {
		return ClaimReply{Done: true}, nil
	}
	idx, leaseID, ok := c.table.claim(req.Worker, now)
	if !ok {
		return ClaimReply{}, nil
	}
	c.emit(Event{Kind: EventLeased, Cell: c.cells[idx], Worker: req.Worker,
		Done: c.done, Total: len(c.cells)})
	return ClaimReply{OK: true, Cell: c.cells[idx], LeaseID: leaseID, TTL: c.table.cfg.TTL}, nil
}

// Heartbeat implements Transport. Lease arithmetic uses the coordinator's
// clock; req.SentAt (the worker's possibly-skewed clock) is ignored.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	c.sweepExpired(now)
	return HeartbeatReply{OK: c.table.heartbeat(req.LeaseID, now)}, nil
}

// Complete implements Transport: verify, then absorb exactly once (success)
// or count a failed attempt (failure, missing or corrupt artefact).
func (c *Coordinator) Complete(req CompleteRequest) (CompleteReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	c.sweepExpired(now)
	idx := req.Cell.Index
	if idx < 0 || idx >= len(c.cells) {
		return CompleteReply{}, fmt.Errorf("sweepfarm: completion for unknown cell %d", idx)
	}
	cell := c.cells[idx]
	if req.Failed != "" {
		c.fail(idx, req, req.Failed, now)
		return CompleteReply{}, nil
	}
	data := req.Artifact
	if cell.Key != "" {
		// Store-backed cell: trust nothing in the message — re-read the
		// artefact and verify it. A torn or missing write surfaces here
		// and costs the attempt, not the sweep's integrity.
		var ok bool
		var err error
		data, ok, err = c.store.Get(cell.Key)
		if err != nil {
			c.fail(idx, req, fmt.Sprintf("reading artefact: %v", err), now)
			return CompleteReply{}, nil
		}
		if !ok {
			c.fail(idx, req, "completion without artefact (lost write?)", now)
			return CompleteReply{}, nil
		}
	}
	if c.cfg.Verify != nil {
		if err := c.cfg.Verify(cell, data); err != nil {
			c.fail(idx, req, fmt.Sprintf("artefact failed verification: %v", err), now)
			return CompleteReply{}, nil
		}
	}
	if err := c.absorb(cell, data, req.Worker, req.Cached); err != nil {
		return CompleteReply{}, err
	}
	return CompleteReply{Accepted: true}, nil
}

// fail records a failed attempt from a completion report. Caller holds the
// lock.
func (c *Coordinator) fail(idx int, req CompleteRequest, msg string, now time.Time) {
	counted, quarantined := c.table.completeFail(idx, req.LeaseID, msg, now)
	if !counted {
		// Stale lease: the cell moved on (expired and re-leased, or done).
		c.emit(Event{Kind: EventDuplicate, Cell: c.cells[idx], Worker: req.Worker,
			Done: c.done, Total: len(c.cells)})
		return
	}
	kind := EventRetry
	if quarantined {
		kind = EventQuarantined
	}
	c.emit(Event{Kind: kind, Cell: c.cells[idx], Worker: req.Worker,
		Attempt: c.table.recs[idx].attempts, Err: msg,
		Done: c.done, Total: len(c.cells)})
	c.checkFinished()
}

// DoneCh is closed when every cell is done or quarantined.
func (c *Coordinator) DoneCh() <-chan struct{} { return c.doneCh }

// Quarantine describes one gap in a finished sweep.
type Quarantine struct {
	Cell     Cell
	Attempts int
	LastErr  string
}

// Report summarises a sweep's robustness bookkeeping.
type Report struct {
	// Cells is the sweep size, Done the absorbed count (Done + gaps ==
	// Cells once the farm finishes).
	Cells int
	Done  int
	// Quarantined lists the gaps: cells the sweep completed *without*,
	// reported explicitly so they are never mistaken for zeros.
	Quarantined []Quarantine
	// Crashes counts worker deaths the farm supervisor observed (zero
	// for a bare coordinator).
	Crashes int
}

// Gaps renders the quarantine list as an explicit human-readable gap
// report; empty when the sweep is whole.
func (r Report) Gaps() string {
	if len(r.Quarantined) == 0 {
		return ""
	}
	s := fmt.Sprintf("QUARANTINED: %d of %d cells failed every attempt and are MISSING from the tables:\n",
		len(r.Quarantined), r.Cells)
	for _, q := range r.Quarantined {
		s += fmt.Sprintf("  cell %d (%s): %d attempts, last error: %s\n", q.Cell.Index, q.Cell.Label, q.Attempts, q.LastErr)
	}
	return s
}

// Report reads the coordinator's current bookkeeping.
func (c *Coordinator) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := Report{Cells: len(c.cells), Done: c.done}
	for i := range c.table.recs {
		r := &c.table.recs[i]
		if r.state == stateQuarantined {
			rep.Quarantined = append(rep.Quarantined, Quarantine{
				Cell: c.cells[i], Attempts: r.attempts, LastErr: r.lastErr})
		}
	}
	return rep
}
