package sweepfarm_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mlorass/internal/runstore"
	"mlorass/internal/sweepfarm"
	"mlorass/internal/sweepfarm/faultinject"
)

// artifactFor is the deterministic toy runner's output for a cell: the same
// bytes on every attempt, on every worker — the property that makes
// at-least-once execution safe. The trailing marker makes any torn prefix
// fail verification.
func artifactFor(c sweepfarm.Cell) []byte {
	return []byte(fmt.Sprintf("{\"cell\":%d,\"label\":%q,\"value\":%d,\"eof\":\"#\"}",
		c.Index, c.Label, (c.Index+1)*41))
}

func verifyCell(c sweepfarm.Cell, data []byte) error {
	if !bytes.Equal(data, artifactFor(c)) {
		return fmt.Errorf("artefact for cell %d is damaged (%d bytes)", c.Index, len(data))
	}
	return nil
}

func newCells(n int) []sweepfarm.Cell {
	cells := make([]sweepfarm.Cell, n)
	for i := range cells {
		label := fmt.Sprintf("cell-%02d", i)
		cells[i] = sweepfarm.Cell{
			Index: i,
			Key:   runstore.Key([]byte("sweepfarm_test:" + label)),
			Label: label,
		}
	}
	return cells
}

// expectedFor is what a fault-free serial sweep produces: the convergence
// target every fault schedule is checked against.
func expectedFor(cells []sweepfarm.Cell) map[int][]byte {
	want := map[int][]byte{}
	for _, c := range cells {
		want[c.Index] = artifactFor(c)
	}
	return want
}

// recorder collects absorbed artefacts and coordinator events, and enforces
// the exactly-once merge: a second absorption of any cell fails the test.
type recorder struct {
	t      *testing.T
	mu     sync.Mutex
	got    map[int][]byte
	counts map[int]int
	events []sweepfarm.Event
}

func newRecorder(t *testing.T) *recorder {
	return &recorder{t: t, got: map[int][]byte{}, counts: map[int]int{}}
}

func (r *recorder) absorb(c sweepfarm.Cell, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[c.Index]++
	if r.counts[c.Index] > 1 {
		r.t.Errorf("cell %d absorbed %d times; merge must be exactly-once", c.Index, r.counts[c.Index])
	}
	r.got[c.Index] = append([]byte(nil), data...)
	return nil
}

func (r *recorder) event(e sweepfarm.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recorder) countKind(k sweepfarm.EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func (r *recorder) countExpired() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Expired {
			n++
		}
	}
	return n
}

func (r *recorder) countCached() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == sweepfarm.EventDone && e.Cached {
			n++
		}
	}
	return n
}

// assertConverged checks the run produced exactly the fault-free result.
func (r *recorder) assertConverged(t *testing.T, cells []sweepfarm.Cell) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	want := expectedFor(cells)
	if len(r.got) != len(want) {
		t.Fatalf("absorbed %d cells, want %d", len(r.got), len(want))
	}
	for idx, w := range want {
		if !bytes.Equal(r.got[idx], w) {
			t.Fatalf("cell %d bytes diverged from the fault-free run:\n got %q\nwant %q", idx, r.got[idx], w)
		}
	}
}

// fast lease/worker configs: real wall clock, small enough that expiry paths
// run in milliseconds.
func fastLease() sweepfarm.LeaseConfig {
	return sweepfarm.LeaseConfig{
		TTL:         60 * time.Millisecond,
		MaxAttempts: 4,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Seed:        7,
	}
}

func fastWorker() sweepfarm.WorkerConfig {
	return sweepfarm.WorkerConfig{
		Poll:        2 * time.Millisecond,
		SendRetries: 3,
	}
}

type farmOpts struct {
	workers     int
	respawn     bool
	inj         *faultinject.Injector
	run         sweepfarm.Runner
	workerClock func(i int) sweepfarm.Clock
	lease       *sweepfarm.LeaseConfig
	worker      *sweepfarm.WorkerConfig
}

// runFarm builds and runs a farm over store with the fast test timings,
// returning the recorder, the final report and Run's error.
func runFarm(t *testing.T, cells []sweepfarm.Cell, store sweepfarm.ArtifactStore, o farmOpts) (*recorder, sweepfarm.Report, error) {
	t.Helper()
	rec := newRecorder(t)
	run := o.run
	if run == nil {
		run = func(c sweepfarm.Cell) ([]byte, error) { return artifactFor(c), nil }
	}
	lease := fastLease()
	if o.lease != nil {
		lease = *o.lease
	}
	worker := fastWorker()
	if o.worker != nil {
		worker = *o.worker
	}
	cfg := sweepfarm.FarmConfig{
		Workers:     o.workers,
		Worker:      worker,
		Lease:       lease,
		Verify:      verifyCell,
		Absorb:      rec.absorb,
		Events:      rec.event,
		Respawn:     o.respawn,
		WorkerClock: o.workerClock,
	}
	if o.inj != nil {
		cfg.Hooks = o.inj.Hooks()
		cfg.WrapTransport = o.inj.WrapTransport
		if store != nil {
			store = o.inj.WrapStore(store)
		}
	}
	farm, err := sweepfarm.New(cells, run, store, nil, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := farm.Run()
	return rec, rep, err
}

func openStore(t *testing.T) *runstore.Store {
	t.Helper()
	s, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("runstore.Open: %v", err)
	}
	return s
}

func TestFarmFaultFreeMatchesSerial(t *testing.T) {
	cells := newCells(8)
	// Serial: one worker, no faults.
	serial, repS, err := runFarm(t, cells, openStore(t), farmOpts{workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	serial.assertConverged(t, cells)
	// Parallel: four workers over a fresh store must produce the same bytes.
	par, repP, err := runFarm(t, cells, openStore(t), farmOpts{workers: 4})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	par.assertConverged(t, cells)
	if repS.Done != len(cells) || repP.Done != len(cells) {
		t.Fatalf("Done = %d / %d, want %d", repS.Done, repP.Done, len(cells))
	}
	if len(repP.Quarantined) != 0 || repP.Crashes != 0 {
		t.Fatalf("fault-free run reported quarantines=%d crashes=%d", len(repP.Quarantined), repP.Crashes)
	}
}

func TestFarmKeylessCellsTravelInline(t *testing.T) {
	cells := make([]sweepfarm.Cell, 4)
	for i := range cells {
		cells[i] = sweepfarm.Cell{Index: i, Label: fmt.Sprintf("inline-%d", i)}
	}
	rec, rep, err := runFarm(t, cells, nil, farmOpts{workers: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	if rep.Done != len(cells) {
		t.Fatalf("Done = %d, want %d", rep.Done, len(cells))
	}
}

// TestFarmCrashAtEachPhase kills a worker at each checkpoint — before
// claiming, mid-compute with the lease held, and after the durable write but
// before the ack — and proves the supervisor + lease expiry recover every
// time with the fault-free result.
func TestFarmCrashAtEachPhase(t *testing.T) {
	for _, phase := range []sweepfarm.Phase{
		sweepfarm.PhasePreClaim, sweepfarm.PhaseMidCompute, sweepfarm.PhasePostWrite,
	} {
		phase := phase
		t.Run(phase.String(), func(t *testing.T) {
			t.Parallel()
			cells := newCells(6)
			inj := faultinject.New(nil).Crash("", phase, 2)
			rec, rep, err := runFarm(t, cells, openStore(t), farmOpts{
				workers: 2, respawn: true, inj: inj})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			rec.assertConverged(t, cells)
			if got := inj.Stats().Crashes; got != 1 {
				t.Fatalf("injected crashes = %d, want 1 (the schedule did not fire)", got)
			}
			if rep.Crashes < 1 {
				t.Fatalf("supervisor observed %d crashes, want >= 1", rep.Crashes)
			}
			if phase == sweepfarm.PhasePostWrite {
				// The artefact was durable before the crash: recovery must
				// find it in the store (a cached completion or a duplicate),
				// never recompute into a divergent result.
				if rec.countCached()+rec.countKind(sweepfarm.EventDuplicate) == 0 {
					t.Fatal("post-write crash recovered without a cached/duplicate completion")
				}
			}
		})
	}
}

// TestFarmDroppedCompleteReply loses the acknowledgement of a completion:
// the worker cannot tell its report was processed, re-sends it, and the
// coordinator dedupes the duplicate.
func TestFarmDroppedCompleteReply(t *testing.T) {
	cells := newCells(6)
	inj := faultinject.New(nil).Message(faultinject.OpComplete, "", 2, faultinject.DropReply, 0)
	rec, rep, err := runFarm(t, cells, openStore(t), farmOpts{workers: 2, inj: inj})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	if inj.Stats().DroppedReplies != 1 {
		t.Fatalf("dropped replies = %d, want 1", inj.Stats().DroppedReplies)
	}
	if rec.countKind(sweepfarm.EventDuplicate) < 1 {
		t.Fatal("re-sent completion was not observed as a duplicate")
	}
	if rep.Done != len(cells) {
		t.Fatalf("Done = %d, want %d", rep.Done, len(cells))
	}
}

// TestFarmDuplicatedComplete delivers one completion twice at the transport
// layer; the merge stays exactly-once.
func TestFarmDuplicatedComplete(t *testing.T) {
	cells := newCells(6)
	inj := faultinject.New(nil).Message(faultinject.OpComplete, "", 1, faultinject.Duplicate, 0)
	rec, _, err := runFarm(t, cells, openStore(t), farmOpts{workers: 2, inj: inj})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	if inj.Stats().Duplicated != 1 {
		t.Fatalf("duplicated messages = %d, want 1", inj.Stats().Duplicated)
	}
	if rec.countKind(sweepfarm.EventDuplicate) < 1 {
		t.Fatal("duplicated completion was not observed as a duplicate")
	}
}

// TestFarmTornWriteRecovered tears an artefact write — a prefix lands and
// the writer is told it succeeded. The coordinator's re-read + re-verify
// catches it, costs the attempt, and the recompute repairs the store.
func TestFarmTornWriteRecovered(t *testing.T) {
	cells := newCells(6)
	store := openStore(t)
	inj := faultinject.New(nil).TearWrite("", 1, 0.5)
	rec, rep, err := runFarm(t, cells, store, farmOpts{workers: 2, inj: inj})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	if inj.Stats().TornWrites != 1 {
		t.Fatalf("torn writes = %d, want 1", inj.Stats().TornWrites)
	}
	if rec.countKind(sweepfarm.EventRetry) < 1 {
		t.Fatal("torn write did not cost a retry")
	}
	if rep.Done != len(cells) {
		t.Fatalf("Done = %d, want %d", rep.Done, len(cells))
	}
	// The store must hold the repaired, whole artefact for every cell.
	for _, c := range cells {
		data, ok, err := store.Get(c.Key)
		if err != nil || !ok {
			t.Fatalf("cell %d missing from store after run (ok=%v err=%v)", c.Index, ok, err)
		}
		if err := verifyCell(c, data); err != nil {
			t.Fatalf("store still torn after run: %v", err)
		}
	}
}

// TestFarmSlowWorkerLeaseExpires stalls a worker mid-compute for longer than
// the lease TTL while every heartbeat is dropped in flight (a live but
// partitioned worker: its keepalives never arrive, so the lease genuinely
// dies). The cell is re-leased and completed elsewhere; the zombie's late
// completion is deduped.
func TestFarmSlowWorkerLeaseExpires(t *testing.T) {
	cells := newCells(6)
	inj := faultinject.New(nil).
		Stall("", sweepfarm.PhaseMidCompute, 2, 150*time.Millisecond).
		Message(faultinject.OpHeartbeat, "", 0, faultinject.DropRequest, 0)
	rec, rep, err := runFarm(t, cells, openStore(t), farmOpts{
		workers: 2, inj: inj})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	if inj.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", inj.Stats().Stalls)
	}
	if rec.countExpired() < 1 {
		t.Fatal("no lease expiry observed despite a stall past the TTL")
	}
	if rep.Done != len(cells) {
		t.Fatalf("Done = %d, want %d", rep.Done, len(cells))
	}
}

// TestFarmClockSkewHarmless runs workers whose clocks are hours off the
// coordinator's in both directions. Lease arithmetic only ever uses the
// coordinator's clock, so the sweep must converge normally.
func TestFarmClockSkewHarmless(t *testing.T) {
	cells := newCells(8)
	skews := []time.Duration{-2 * time.Hour, 3 * time.Hour, 0}
	rec, rep, err := runFarm(t, cells, openStore(t), farmOpts{
		workers: 3,
		workerClock: func(i int) sweepfarm.Clock {
			return sweepfarm.Skewed(sweepfarm.Wall(), skews[i%len(skews)])
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	if rep.Done != len(cells) || len(rep.Quarantined) != 0 {
		t.Fatalf("Done=%d Quarantined=%d, want %d/0", rep.Done, len(rep.Quarantined), len(cells))
	}
}

// TestFarmQuarantineReportsGap makes one cell fail every attempt: after
// exactly MaxAttempts it is quarantined and the sweep still terminates, with
// the gap reported explicitly — never silently zeroed.
func TestFarmQuarantineReportsGap(t *testing.T) {
	cells := newCells(6)
	const poison = 2
	lease := fastLease()
	lease.MaxAttempts = 3
	run := func(c sweepfarm.Cell) ([]byte, error) {
		if c.Index == poison {
			return nil, fmt.Errorf("injected permanent failure")
		}
		return artifactFor(c), nil
	}
	rec, rep, err := runFarm(t, cells, openStore(t), farmOpts{
		workers: 2, run: run, lease: &lease})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Done != len(cells)-1 {
		t.Fatalf("Done = %d, want %d", rep.Done, len(cells)-1)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("Quarantined = %v, want exactly the poison cell", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Cell.Index != poison || q.Attempts != lease.MaxAttempts {
		t.Fatalf("quarantine = cell %d after %d attempts, want cell %d after %d",
			q.Cell.Index, q.Attempts, poison, lease.MaxAttempts)
	}
	if !strings.Contains(q.LastErr, "injected permanent failure") {
		t.Fatalf("quarantine lost the failure cause: %q", q.LastErr)
	}
	gaps := rep.Gaps()
	if !strings.Contains(gaps, "MISSING") || !strings.Contains(gaps, cells[poison].Label) {
		t.Fatalf("gap report does not name the missing cell:\n%s", gaps)
	}
	if rec.countKind(sweepfarm.EventQuarantined) != 1 {
		t.Fatalf("quarantine events = %d, want 1", rec.countKind(sweepfarm.EventQuarantined))
	}
	rec.mu.Lock()
	_, gotPoison := rec.got[poison]
	rec.mu.Unlock()
	if gotPoison {
		t.Fatal("poison cell was absorbed despite failing every attempt")
	}
}

// TestFarmCoordinatorRestartFromStore crashes the whole farm mid-sweep (no
// respawn), then builds a fresh coordinator over the same store: it must
// recover every persisted cell — including the one whose completion was
// never acked — from store state alone and finish the sweep.
func TestFarmCoordinatorRestartFromStore(t *testing.T) {
	cells := newCells(6)
	store := openStore(t)
	// The sole worker dies after durably writing its 3rd artefact, before
	// the ack: two cells acked, one orphaned in the store.
	inj := faultinject.New(nil).Crash("w0", sweepfarm.PhasePostWrite, 3)
	rec1, rep1, err := runFarm(t, cells, store, farmOpts{workers: 1, inj: inj})
	if err == nil {
		t.Fatal("first run succeeded; want an all-workers-dead error")
	}
	if !strings.Contains(err.Error(), "still open") {
		t.Fatalf("first run error = %v, want the still-open report", err)
	}
	if rep1.Done != 2 || rep1.Crashes != 1 {
		t.Fatalf("first run: Done=%d Crashes=%d, want 2/1", rep1.Done, rep1.Crashes)
	}
	_ = rec1
	if n, err := store.Len(); err != nil || n != 3 {
		t.Fatalf("store holds %d artefacts after crash (err=%v), want 3", n, err)
	}
	// Restart: a fresh farm over the same store, fault-free.
	rec2, rep2, err := runFarm(t, cells, store, farmOpts{workers: 2})
	if err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	rec2.assertConverged(t, cells)
	if rep2.Done != len(cells) {
		t.Fatalf("restarted run: Done = %d, want %d", rep2.Done, len(cells))
	}
	if rec2.countCached() < 3 {
		t.Fatalf("restart recovered %d cells from the store, want >= 3", rec2.countCached())
	}
}

// TestFarmRandomSchedulesConverge is the convergence property over the seed
// corpus: every seeded random schedule of crashes, message faults and torn
// writes must end with exactly the fault-free bytes, exactly-once absorbed.
func TestFarmRandomSchedulesConverge(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cells := newCells(10)
			store := openStore(t)
			inj := faultinject.Random(seed, nil, faultinject.RandomConfig{
				Workers:   3,
				Crashes:   2,
				MsgFaults: 3,
				Tears:     1,
				MaxNth:    2,
				Delay:     3 * time.Millisecond,
			})
			lease := fastLease()
			lease.MaxAttempts = 6 // transient faults must never quarantine
			rec, rep, err := runFarm(t, cells, store, farmOpts{
				workers: 3, respawn: true, inj: inj, lease: &lease})
			if err != nil {
				t.Fatalf("run: %v (stats %+v)", err, inj.Stats())
			}
			rec.assertConverged(t, cells)
			if len(rep.Quarantined) != 0 {
				t.Fatalf("transient schedule quarantined cells: %+v (stats %+v)",
					rep.Quarantined, inj.Stats())
			}
			// Whatever the schedule did, the store must end whole.
			for _, c := range cells {
				data, ok, err := store.Get(c.Key)
				if err != nil || !ok {
					t.Fatalf("cell %d missing from store (ok=%v err=%v)", c.Index, ok, err)
				}
				if err := verifyCell(c, data); err != nil {
					t.Fatalf("store damaged after schedule: %v", err)
				}
			}
		})
	}
}
