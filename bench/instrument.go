package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mlorass/internal/sweepfarm"
	"mlorass/internal/telemetry"
)

// This file holds the hooks the benchmark installs through the program's
// existing seams. Untraced runs install only firstAttach (plus the farm's
// event counter, which the output checks need); everything else is
// installed in traced runs alone.

// firstAttach implements telemetry.LiveAttacher. Both engines attach their
// recorders once the world is built, just before the kernel starts, so the
// first call marks the end of set-up. It costs nothing on the hot path.
type firstAttach struct {
	once sync.Once
	at   time.Time
}

func (a *firstAttach) Attach(*telemetry.Recorder) func() {
	a.once.Do(func() { a.at = time.Now() })
	return func() {}
}

// discardSink is the trace sink of traced runs. Tracing one message in
// 2^30 keeps the trace volume negligible while the tracer's presence
// switches on the kernel's per-event counter.
type discardSink struct{}

func (discardSink) Emit(telemetry.Event) error { return nil }
func (discardSink) Close() error               { return nil }

// phaseAcc accumulates one tile-engine phase across windows. Within a window
// every shard ends one span; the phase costs the window its slowest shard,
// and the other shards wait at the barrier for the difference.
type phaseAcc struct {
	at         time.Duration // current window start
	durs       []time.Duration
	slowest    time.Duration // Σ per-window slowest shard
	barrier    time.Duration // Σ per-window (slowest − each shard)
	windowSeen bool
}

func (p *phaseAcc) add(at, d time.Duration) {
	if p.windowSeen && at != p.at {
		p.flush()
	}
	p.at, p.windowSeen = at, true
	p.durs = append(p.durs, d)
}

func (p *phaseAcc) flush() {
	if !p.windowSeen {
		return
	}
	var max time.Duration
	for _, d := range p.durs {
		if d > max {
			max = d
		}
	}
	p.slowest += max
	for _, d := range p.durs {
		p.barrier += max - d
	}
	p.durs = p.durs[:0]
	p.windowSeen = false
}

// spanRecorder implements telemetry.SpanSink for traced runs: the tile
// engine's per-window kernel/resolve/deliver spans and coordinator merge
// spans, and the sweep pool's per-cell spans.
type spanRecorder struct {
	base time.Time

	mu       sync.Mutex
	phases   map[string]*phaseAcc
	merge    time.Duration
	windows  int
	fanout   int64 // Σ per-window cross-tile import fan-out
	cellDurs []float64
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{base: time.Now(), phases: map[string]*phaseAcc{
		"kernel": {}, "resolve": {}, "deliver": {},
	}}
}

func (r *spanRecorder) StartSpan() telemetry.SpanToken {
	return telemetry.SpanToken(time.Since(r.base))
}

func (r *spanRecorder) EndSpan(e telemetry.SpanEnd) {
	d := time.Since(r.base) - time.Duration(e.Token)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Name {
	case "merge":
		r.merge += d
		r.windows++
	case "cell":
		r.cellDurs = append(r.cellDurs, d.Seconds())
	default:
		if p := r.phases[e.Name]; p != nil {
			p.add(e.At, d)
			if e.Name == "resolve" && e.Shard == 0 {
				r.fanout += e.Attr
			}
		}
	}
}

// finish flushes the last window of every phase.
func (r *spanRecorder) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.phases {
		p.flush()
	}
}

// timer accumulates the count and total duration of one kind of call.
type timer struct {
	n     atomic.Int64
	nanos atomic.Int64
}

func (t *timer) since(start time.Time) {
	t.n.Add(1)
	t.nanos.Add(int64(time.Since(start)))
}

func (t *timer) seconds() float64 { return float64(t.nanos.Load()) / 1e9 }

// farmTrace gathers the sweep farm's per-layer measurements from the seams
// the farm exposes: both sides of the transport, the artefact store, the
// runner, verifier, absorber, the workers' clock and the event stream.
type farmTrace struct {
	// Client side (worker goroutines) and coordinator side of each call.
	clientClaim, clientComplete, clientHeartbeat timer
	coordCalls                                   timer
	claimHits                                    atomic.Int64
	bytesTx, bytesRx                             atomic.Int64

	storeGet, storePut     timer
	workerStore            timer // every store call made by workers
	runner, verify, absorb timer
	pollWait               timer

	mu       sync.Mutex
	cellDurs []float64
}

// wrapCoordinator times the coordinator side of every call the wire server
// dispatches.
func (f *farmTrace) wrapCoordinator(t sweepfarm.Transport) sweepfarm.Transport {
	return coordSide{t, f}
}

type coordSide struct {
	t sweepfarm.Transport
	f *farmTrace
}

func (c coordSide) Claim(r sweepfarm.ClaimRequest) (sweepfarm.ClaimReply, error) {
	defer c.f.coordCalls.since(time.Now())
	return c.t.Claim(r)
}

func (c coordSide) Heartbeat(r sweepfarm.HeartbeatRequest) (sweepfarm.HeartbeatReply, error) {
	defer c.f.coordCalls.since(time.Now())
	return c.t.Heartbeat(r)
}

func (c coordSide) Complete(r sweepfarm.CompleteRequest) (sweepfarm.CompleteReply, error) {
	defer c.f.coordCalls.since(time.Now())
	return c.t.Complete(r)
}

// wrapClient times each call as the worker sees it, network included.
func (f *farmTrace) wrapClient(t sweepfarm.Transport) sweepfarm.Transport {
	return clientSide{t, f}
}

type clientSide struct {
	t sweepfarm.Transport
	f *farmTrace
}

func (c clientSide) Claim(r sweepfarm.ClaimRequest) (sweepfarm.ClaimReply, error) {
	defer c.f.clientClaim.since(time.Now())
	rep, err := c.t.Claim(r)
	if err == nil && rep.OK {
		c.f.claimHits.Add(1)
	}
	return rep, err
}

func (c clientSide) Heartbeat(r sweepfarm.HeartbeatRequest) (sweepfarm.HeartbeatReply, error) {
	defer c.f.clientHeartbeat.since(time.Now())
	return c.t.Heartbeat(r)
}

func (c clientSide) Complete(r sweepfarm.CompleteRequest) (sweepfarm.CompleteReply, error) {
	defer c.f.clientComplete.since(time.Now())
	return c.t.Complete(r)
}

// dial is the workers' ClientConfig.Dial: plain TCP with byte counting.
func (f *farmTrace) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return countingConn{c, f}, nil
}

type countingConn struct {
	net.Conn
	f *farmTrace
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.f.bytesRx.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.f.bytesTx.Add(int64(n))
	return n, err
}

// wrapStore times store calls; worker marks the workers' handle, whose
// calls count towards worker time.
func (f *farmTrace) wrapStore(s sweepfarm.ArtifactStore, worker bool) sweepfarm.ArtifactStore {
	return timedStore{s, f, worker}
}

type timedStore struct {
	s      sweepfarm.ArtifactStore
	f      *farmTrace
	worker bool
}

// done times one store call: under kind when it is reported on its own
// (nil otherwise), and as worker time on the workers' handle.
func (t timedStore) done(kind *timer, start time.Time) {
	if kind != nil {
		kind.since(start)
	}
	if t.worker {
		t.f.workerStore.since(start)
	}
}

func (t timedStore) Get(key string) ([]byte, bool, error) {
	defer t.done(&t.f.storeGet, time.Now())
	return t.s.Get(key)
}

func (t timedStore) Put(key string, data []byte) error {
	defer t.done(&t.f.storePut, time.Now())
	return t.s.Put(key, data)
}

func (t timedStore) Claim(key, owner string) (bool, error) {
	defer t.done(nil, time.Now())
	return t.s.Claim(key, owner)
}

func (t timedStore) Release(key string) error {
	defer t.done(nil, time.Now())
	return t.s.Release(key)
}

func (t timedStore) ClaimInfo(key string) (string, time.Time, bool, error) {
	defer t.done(nil, time.Now())
	return t.s.ClaimInfo(key)
}

func (t timedStore) BreakClaim(key, owner string, since time.Time) (bool, error) {
	defer t.done(nil, time.Now())
	return t.s.BreakClaim(key, owner, since)
}

// wrapRunner times each cell's compute (simulate + encode).
func (f *farmTrace) wrapRunner(run sweepfarm.Runner) sweepfarm.Runner {
	return func(c sweepfarm.Cell) ([]byte, error) {
		start := time.Now()
		data, err := run(c)
		f.runner.since(start)
		f.mu.Lock()
		f.cellDurs = append(f.cellDurs, time.Since(start).Seconds())
		f.mu.Unlock()
		return data, err
	}
}

func (f *farmTrace) wrapVerify(v sweepfarm.Verify) sweepfarm.Verify {
	return func(c sweepfarm.Cell, data []byte) error {
		defer f.verify.since(time.Now())
		return v(c, data)
	}
}

func (f *farmTrace) wrapAbsorb(a sweepfarm.Absorb) sweepfarm.Absorb {
	return func(c sweepfarm.Cell, data []byte) error {
		defer f.absorb.since(time.Now())
		return a(c, data)
	}
}

// pollClock is the workers' clock. Waits of exactly the idle-poll period
// are the workers' poll sleeps and are timed as they complete; every other
// wait (the heartbeat goroutine's period) passes straight through.
type pollClock struct {
	sweepfarm.Clock
	poll time.Duration
	f    *farmTrace
}

func (c pollClock) After(d time.Duration) <-chan time.Time {
	if d != c.poll {
		return c.Clock.After(d)
	}
	start := time.Now()
	out := make(chan time.Time, 1) // the sleeper may be gone; never block
	go func() {
		t := <-c.Clock.After(d)
		c.f.pollWait.since(start)
		out <- t
	}()
	return out
}

// farmEvents counts the coordinator's event stream; failures (retries,
// lease expiries, quarantines) fail the op.
type farmEvents struct {
	retries, expiries, duplicates, quarantined atomic.Int64
}

func (e *farmEvents) observe(ev sweepfarm.Event) {
	switch ev.Kind {
	case sweepfarm.EventRetry:
		e.retries.Add(1)
		if ev.Expired {
			e.expiries.Add(1)
		}
	case sweepfarm.EventDuplicate:
		e.duplicates.Add(1)
	case sweepfarm.EventQuarantined:
		e.quarantined.Add(1)
		if ev.Expired {
			e.expiries.Add(1)
		}
	}
}
