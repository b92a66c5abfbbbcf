package wire_test

// The farm's convergence contract — every fault schedule produces the same
// bytes as a fault-free serial run — was proven over in-process transports
// by the sweepfarm tests. This file re-runs the same scenarios with the
// real codec in the loop: coordinator behind a wire.Server on loopback TCP,
// every worker talking through its own wire.Client, and the fault injector
// layered both above the client (message faults) and below it (wire faults:
// refused connects, torn frames, resets mid-reply, stalls).

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mlorass/internal/runstore"
	"mlorass/internal/sweepfarm"
	"mlorass/internal/sweepfarm/faultinject"
	"mlorass/internal/sweepfarm/wire"
)

func artifactFor(c sweepfarm.Cell) []byte {
	return []byte(fmt.Sprintf("{\"cell\":%d,\"label\":%q,\"value\":%d,\"eof\":\"#\"}",
		c.Index, c.Label, (c.Index+1)*43))
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
		label := fmt.Sprintf("wire-cell-%02d", i)
		cells[i] = sweepfarm.Cell{
			Index: i,
			Key:   runstore.Key([]byte("wire_test:" + label)),
			Label: label,
		}
	}
	return cells
}

// recorder enforces the exactly-once merge and collects events.
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

func (r *recorder) assertConverged(t *testing.T, cells []sweepfarm.Cell) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.got) != len(cells) {
		t.Fatalf("absorbed %d cells, want %d", len(r.got), len(cells))
	}
	for _, c := range cells {
		if !bytes.Equal(r.got[c.Index], artifactFor(c)) {
			t.Fatalf("cell %d bytes diverged from the fault-free run:\n got %q\nwant %q",
				c.Index, r.got[c.Index], artifactFor(c))
		}
	}
}

func fastLease() sweepfarm.LeaseConfig {
	return sweepfarm.LeaseConfig{
		TTL:         100 * time.Millisecond,
		MaxAttempts: 5,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Seed:        11,
	}
}

func fastWorker() sweepfarm.WorkerConfig {
	return sweepfarm.WorkerConfig{
		Poll:        2 * time.Millisecond,
		SendRetries: 3,
	}
}

func openStore(t *testing.T) *runstore.Store {
	t.Helper()
	s, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("runstore.Open: %v", err)
	}
	return s
}

type wireFarmOpts struct {
	workers int
	respawn bool
	inj     *faultinject.Injector
	// wireFaults routes the injector's conn-level faults under the client
	// (in addition to its message faults above the client).
	wireFaults bool
	timeout    time.Duration // client exchange timeout (default 2s)
}

// runWireFarm runs the standard farm harness with the transport seam
// replaced by real TCP: the coordinator serves on loopback, each worker
// (and each respawn) gets a fresh wire.Client.
func runWireFarm(t *testing.T, cells []sweepfarm.Cell, store sweepfarm.ArtifactStore, o wireFarmOpts) (*recorder, sweepfarm.Report, error) {
	t.Helper()
	rec := newRecorder(t)
	run := func(c sweepfarm.Cell) ([]byte, error) { return artifactFor(c), nil }

	var (
		startOnce sync.Once
		srv       *wire.Server
		addr      string
		mu        sync.Mutex
		clients   []*wire.Client
	)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range clients {
			c.Close()
		}
		if srv != nil {
			srv.Close()
		}
	})

	timeout := o.timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	cfg := sweepfarm.FarmConfig{
		Workers: o.workers,
		Worker:  fastWorker(),
		Lease:   fastLease(),
		Verify:  verifyCell,
		Absorb:  rec.absorb,
		Events:  rec.event,
		Respawn: o.respawn,
	}
	if o.inj != nil {
		cfg.Hooks = o.inj.Hooks()
		if store != nil {
			store = o.inj.WrapStore(store)
		}
	}
	cfg.WrapTransport = func(tr sweepfarm.Transport) sweepfarm.Transport {
		startOnce.Do(func() {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			srv = wire.NewServer(tr, wire.ServerConfig{Logf: t.Logf})
			addr = ln.Addr().String()
			go srv.Serve(ln)
		})
		dial := func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, time.Second)
		}
		if o.inj != nil && o.wireFaults {
			dial = o.inj.WrapDial(dial)
		}
		c := wire.NewClient(wire.ClientConfig{
			Addr: addr, Timeout: timeout, DialTimeout: time.Second, Dial: dial})
		mu.Lock()
		clients = append(clients, c)
		mu.Unlock()
		var out sweepfarm.Transport = c
		if o.inj != nil {
			out = o.inj.WrapTransport(out)
		}
		return out
	}
	farm, err := sweepfarm.New(cells, run, store, nil, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := farm.Run()
	return rec, rep, err
}

// TestWireFarmFaultFreeMatchesSerial is the byte-identity baseline: a
// parallel farm whose every message crosses real TCP produces exactly what
// a serial in-process run produces.
func TestWireFarmFaultFreeMatchesSerial(t *testing.T) {
	cells := newCells(8)
	rec, rep, err := runWireFarm(t, cells, openStore(t), wireFarmOpts{workers: 3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	if rep.Done != len(cells) || len(rep.Quarantined) != 0 {
		t.Fatalf("Done=%d Quarantined=%v, want %d/none", rep.Done, rep.Quarantined, len(cells))
	}
}

// TestWireFarmCrashAtEachPhase re-proves crash recovery with the codec in
// the loop: a worker dies at each checkpoint, the supervisor respawns it
// with a fresh connection, and the sweep converges.
func TestWireFarmCrashAtEachPhase(t *testing.T) {
	for _, phase := range []sweepfarm.Phase{
		sweepfarm.PhasePreClaim, sweepfarm.PhaseMidCompute, sweepfarm.PhasePostWrite,
	} {
		phase := phase
		t.Run(phase.String(), func(t *testing.T) {
			t.Parallel()
			cells := newCells(6)
			inj := faultinject.New(nil).Crash("", phase, 2)
			rec, rep, err := runWireFarm(t, cells, openStore(t), wireFarmOpts{
				workers: 2, respawn: true, inj: inj})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			rec.assertConverged(t, cells)
			if inj.Stats().Crashes != 1 {
				t.Fatalf("crashes = %d, want 1", inj.Stats().Crashes)
			}
			if rep.Crashes != 1 {
				t.Fatalf("report crashes = %d, want 1", rep.Crashes)
			}
		})
	}
}

// TestWireFarmDuplicateAndDroppedCompletes drives the at-least-once paths
// over TCP: one completion delivered twice, one completion whose reply is
// lost (so the worker re-sends). The merge stays exactly-once.
func TestWireFarmDuplicateAndDroppedCompletes(t *testing.T) {
	cells := newCells(8)
	inj := faultinject.New(nil).
		Message(faultinject.OpComplete, "", 2, faultinject.Duplicate, 0).
		Message(faultinject.OpComplete, "", 5, faultinject.DropReply, 0)
	rec, rep, err := runWireFarm(t, cells, openStore(t), wireFarmOpts{workers: 2, inj: inj})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	st := inj.Stats()
	if st.Duplicated != 1 || st.DroppedReplies != 1 {
		t.Fatalf("stats = %+v, want one duplicate and one dropped reply", st)
	}
	if rep.Done != len(cells) {
		t.Fatalf("Done = %d, want %d", rep.Done, len(cells))
	}
}

// TestWireFarmLeaseExpiresOverWire stalls a worker past the TTL while its
// heartbeats are dropped in flight; the lease dies, the cell completes
// elsewhere, and the zombie's late completion is deduped — all over TCP.
func TestWireFarmLeaseExpiresOverWire(t *testing.T) {
	cells := newCells(6)
	inj := faultinject.New(nil).
		Stall("", sweepfarm.PhaseMidCompute, 2, 250*time.Millisecond).
		Message(faultinject.OpHeartbeat, "", 0, faultinject.DropRequest, 0)
	rec, _, err := runWireFarm(t, cells, openStore(t), wireFarmOpts{workers: 2, inj: inj})
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
}

// TestWireFarmConnFaultsConverge is the tentpole scenario: refused
// connects, a torn request frame, resets mid-reply and a stalled write, all
// scripted at the conn layer under the real codec. Every one surfaces to
// the worker as ErrLost, the retry machinery grinds through, and the sweep
// converges byte-for-byte.
func TestWireFarmConnFaultsConverge(t *testing.T) {
	cells := newCells(8)
	inj := faultinject.New(nil).
		WireRefuseConnect(1). // first dial refused: worker starts partitioned
		WireTearFrame(3).
		WireResetReply(2).
		WireResetReply(9).
		WireStall(14, 300*time.Millisecond) // past the client timeout below
	rec, rep, err := runWireFarm(t, cells, openStore(t), wireFarmOpts{
		workers: 2, inj: inj, wireFaults: true, timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.assertConverged(t, cells)
	st := inj.Stats()
	if st.WireRefusals != 1 || st.TornFrames != 1 || st.ResetReplies != 2 || st.WireStalls != 1 {
		t.Fatalf("stats = %+v, want every scripted wire fault fired", st)
	}
	if rep.Done != len(cells) {
		t.Fatalf("Done = %d, want %d", rep.Done, len(cells))
	}
}

// TestWireFarmRestartRecoversFromStore crashes the whole farm mid-sweep
// (workers connected over TCP, no respawn), then a fresh coordinator +
// server over the same store must recover persisted cells — including the
// unacked one — and finish.
func TestWireFarmRestartRecoversFromStore(t *testing.T) {
	cells := newCells(6)
	store := openStore(t)
	inj := faultinject.New(nil).Crash("w0", sweepfarm.PhasePostWrite, 3)
	_, rep1, err := runWireFarm(t, cells, store, wireFarmOpts{workers: 1, inj: inj})
	if err == nil {
		t.Fatal("first run succeeded; want an all-workers-dead error")
	}
	if !strings.Contains(err.Error(), "still open") {
		t.Fatalf("first run error = %v, want the still-open report", err)
	}
	if rep1.Done != 2 {
		t.Fatalf("first run Done = %d, want 2", rep1.Done)
	}
	rec2, rep2, err := runWireFarm(t, cells, store, wireFarmOpts{workers: 2})
	if err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	rec2.assertConverged(t, cells)
	if rep2.Done != len(cells) {
		t.Fatalf("restarted run Done = %d, want %d", rep2.Done, len(cells))
	}
	if rec2.countCached() < 3 {
		t.Fatalf("restart recovered %d cells from the store, want >= 3", rec2.countCached())
	}
}

// TestWireClientFaultsMapToErrLost pins the transport-error contract at the
// seam the worker sees: every conn-level fault the injector can script
// surfaces as sweepfarm.ErrLost, never as a panic, a hang, or a silent
// wrong answer.
func TestWireClientFaultsMapToErrLost(t *testing.T) {
	tr := &doneTransport{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(tr, wire.ServerConfig{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cases := []struct {
		name string
		inj  *faultinject.Injector
	}{
		{"refused connect", faultinject.New(nil).WireRefuseConnect(0)},
		{"torn frame", faultinject.New(nil).WireTearFrame(0)},
		{"reset reply", faultinject.New(nil).WireResetReply(0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dial := c.inj.WrapDial(func(a string) (net.Conn, error) { return net.Dial("tcp", a) })
			cl := wire.NewClient(wire.ClientConfig{
				Addr: ln.Addr().String(), Dial: dial, Timeout: 500 * time.Millisecond})
			defer cl.Close()
			if _, err := cl.Claim(sweepfarm.ClaimRequest{Worker: "w0"}); !errors.Is(err, sweepfarm.ErrLost) {
				t.Fatalf("err = %v, want sweepfarm.ErrLost", err)
			}
		})
	}
}

type doneTransport struct{}

func (doneTransport) Claim(sweepfarm.ClaimRequest) (sweepfarm.ClaimReply, error) {
	return sweepfarm.ClaimReply{Done: true}, nil
}
func (doneTransport) Heartbeat(sweepfarm.HeartbeatRequest) (sweepfarm.HeartbeatReply, error) {
	return sweepfarm.HeartbeatReply{OK: true}, nil
}
func (doneTransport) Complete(sweepfarm.CompleteRequest) (sweepfarm.CompleteReply, error) {
	return sweepfarm.CompleteReply{Accepted: true}, nil
}
