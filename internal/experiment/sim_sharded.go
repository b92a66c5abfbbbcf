package experiment

import (
	"fmt"
	"slices"
	"time"

	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/mobility"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
	"mlorass/internal/telemetry"
)

// This file is the execution engine: the city is partitioned into
// Config.Shards spatial tiles (one by default), each tile runs its own event
// kernel on its own goroutine, and the tiles advance in lockstep through
// conservative lookahead windows. Window j covers (W, W+L] and costs two barriers:
//
//   phase B (parallel)  every tile imports the window's foreign
//                       transmissions into its radio-medium view
//                       (order-free: capture takes a max over the
//                       interferer set) and resolves its transmissions due
//                       by H = W+L in (time, device, kind) order: gateway
//                       reception with keyed shadowing draws, MAC requests,
//                       and the handover verdict, judged on the sender's
//                       tile from state that is fixed until the end of
//                       phase C. A missed handover settles on the sender's
//                       own inbox. Outboxes come out in resolve order.
//   B/C barrier         the coordinator merges the tiles' sorted outboxes
//                       (no sort; one tile's outbox is used in place),
//                       feeds decoded frames to the ledger, throughput
//                       series and delay histogram in intrinsic (time,
//                       sender, seq) order, and replays MAC operations
//                       against the one global ADR controller and downlink
//                       scheduler; downlink plans route to their device's
//                       tile. It then picks the next window to run: the
//                       next grid window when any tile has an inbox entry,
//                       otherwise the grid window holding the earliest
//                       pending kernel event or resolution (the skipped
//                       windows had no work).
//   phase C+A (parallel) each tile delivers window j's broadcasts to its
//                       own devices in global (time, sender, seq) order —
//                       handover reception and neighbour overhearing — and
//                       then runs the next window's phase A: it applies its
//                       inbox (settlements, downlink plans) and runs its
//                       kernel to that window's horizon. Transmissions begun
//                       go to a per-tile outbox instead of scheduling
//                       kernel resolutions. Neither half reads what the
//                       other half writes on another tile.
//   C+A barrier         window j's trace events merge-sort and emit; the
//                       next window's phase B follows.
//
// The first window's phase A runs alone, before the loop.
//
// Determinism contract: every cross-device random draw is keyed on
// intrinsic identities (seed, sender, frame sequence, receiver) via
// rng.Key*/rng.Seeded, every cross-tile merge is sorted by an intrinsic
// total order, and every cross-device state read happens in a fixed phase —
// so results are BIT-IDENTICAL for every shard count N ≥ 1, every tile
// layout, and every GOMAXPROCS. Every tile runs one device protocol
// (kernel.go) over one world (world.go); cross-event state is visible at
// window granularity — documented in README "Sharded runs".
//
// Lookahead: L = 2 s, clamped to RX1Delay when the MAC is on, so a downlink
// scheduled from window j (start ≥ uplinkEnd + RX1Delay ≥ W_j + L) is always
// appliable at the start of window j+1 — no tile ever receives an event
// earlier than its local clock (the causality counter, asserted zero by the
// property tests). Duty-cycle retries that would land inside the already-run
// window are clamped to the window grid and counted as lateRetries.

// shardPhase* number the pool phases. shardPhaseDeliver also runs the next
// window's kernel when one is due; shardPhaseKernel runs only the first.
const (
	shardPhaseKernel = iota
	shardPhaseResolve
	shardPhaseDeliver
)

// txRec is one transmission begun this window, merged into every tile's
// medium view at the start of phase B.
type txRec struct {
	shard      int32
	from       int
	pos        geo.Point
	pow        radio.DBm
	start, end time.Duration
}

// bcastRec is one resolved device frame fanned out to receivers in phase C.
// The message payload lives in the sender shard's window arena.
type bcastRec struct {
	at    time.Duration
	from  int
	seq   uint32
	shard int32
	// dest is the target of a handover the sender's tile judged received
	// (-1 when sink-addressed, missed, or preempted by a gateway decode);
	// skip is the originally addressed device, excluded from overhearing
	// either way, like every addressed device.
	dest         int
	skip         int
	pow          radio.DBm
	pos          geo.Point
	advRCAETX    float64
	advQueueLen  int
	mStart, mEnd int32
}

// ingestRec is one gateway-decoded frame bound for the coordinator ledger.
type ingestRec struct {
	at           time.Duration
	from         int
	seq          uint32
	gw           int
	shard        int32
	mStart, mEnd int32
}

// settleRec reconciles a failed handover back onto the sender: the bundle
// (still in the sender tile's arena) returns to its queue head at the next
// window start.
type settleRec struct {
	at           time.Duration
	sender       int
	mStart, mEnd int32
}

// airRec carries one frame's airtime to the coordinator so the airtime
// histogram accumulates as a single sorted stream (bitwise N-invariant).
type airRec struct {
	at  time.Duration
	dev int
	sec float64
}

// resolveRef is one pending transmission resolution on a tile.
type resolveRef struct {
	at   time.Duration
	dev  *device
	kind uint8
}

// shardDiag exposes engine internals to the test layer.
type shardDiag struct {
	// Windows is the number of lookahead windows executed.
	Windows int
	// Skipped is the number of grid windows passed over without work:
	// Windows + Skipped is the grid's window count.
	Skipped int
	// Causality counts inbox events carrying a timestamp earlier than the
	// receiving tile's local clock — always zero (property-tested).
	Causality uint64
	// LateRetries counts duty-cycle retries clamped to the window grid
	// (benign quantisation, distinct from causality violations).
	LateRetries uint64
	// Lookahead is the window length used.
	Lookahead time.Duration
	// Devices is the engine's device table, indexed by fleet id.
	Devices []*device
}

// sharded is the engine: the world, coordinator state, and one shard per
// tile.
type sharded struct {
	world
	lookahead time.Duration

	owner  []int32
	shards []*shard
	pool   *eventsim.Pool

	// Intrinsic draw seeds (keyed draws only — no sequential streams).
	gwShadowSeed uint64
	d2dSeed      uint64
	listenSeed   uint64

	// Bounds of the window whose kernel and resolve phases run next, and
	// the start of the window phase C delivers; written by the coordinator
	// between barriers. kernelDue is false for the last window's phase C.
	windowStart  time.Duration
	horizon      time.Duration
	deliverStart time.Duration
	kernelDue    bool

	// dense runs every grid window, idle or not (tests compare it against
	// the skipping loop).
	dense bool

	// Merged per-window views (coordinator-written, shard-read).
	windowTx    []txRec
	windowBcast []bcastRec

	// Coordinator scratch, reused across windows.
	bcast      merger[bcastRec]
	fresh      merger[ingestRec]
	air        merger[airRec]
	mac        merger[macOp]
	traceBuf   []telemetry.Event
	coordTrace []telemetry.Event

	windows, skipped int
}

// intrinsicMsgID numbers a device's messages independently of any global
// event order: (device+1) in the high word, the device's own counter in the
// low word.
//
//mlorass:hotpath
func intrinsicMsgID(dev int, seq uint32) uint64 {
	return uint64(dev+1)<<32 | uint64(seq)
}

// shardLookahead derives the conservative window length: 2 s of slack, or
// the RX1 delay when the MAC is on so downlink plans from window j are
// always in window j+1's future.
func shardLookahead(cfg *Config) time.Duration {
	l := 2 * time.Second
	if cfg.MAC.Enabled() && cfg.MAC.RX1Delay < l {
		l = cfg.MAC.RX1Delay
	}
	if l <= 0 {
		l = time.Millisecond
	}
	return l
}

// defaultAssign partitions by vertical strips of the area: contiguous tiles
// with balanced geometry, the natural fit for the paper's city square.
func defaultAssign(area geo.Rect, k int) func(id int, home geo.Point) int {
	w := area.Width()
	return func(_ int, home geo.Point) int {
		if w <= 0 || k <= 1 {
			return 0
		}
		t := int(float64(k) * (home.X - area.Min.X) / w)
		if t < 0 {
			t = 0
		}
		if t >= k {
			t = k - 1
		}
		return t
	}
}

// Run executes one scenario and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return runIn(cfg, nil)
}

// runIn is Run with the city taken from a sweep's shared set (nil
// generates it), so a sweep's cells of one replication generate their
// city once.
func runIn(cfg Config, cities *citySet) (*Result, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res, _, err := runSharded(cfg, nil, cities)
	return res, err
}

// runSharded executes a normalized, validated cfg on the windowed tile
// engine. assign overrides the tile assignment (tests randomise it to prove
// layout invariance); nil selects the default strip partition. cities is as
// for newWorld. The returned diagnostics back the causality and equivalence
// test layer.
func runSharded(cfg Config, assign func(id int, home geo.Point) int, cities *citySet) (*Result, *shardDiag, error) {
	e, err := newSharded(cfg, assign, cities)
	if err != nil {
		return nil, nil, err
	}
	return e.execute()
}

// newSharded builds the world, the tiles and every device's initial kernel
// events, ready to execute.
func newSharded(cfg Config, assign func(id int, home geo.Point) int, cities *citySet) (*sharded, error) {
	w, err := newWorld(cfg, cities)
	if err != nil {
		return nil, err
	}
	k := cfg.Shards
	e := &sharded{
		world:        w,
		lookahead:    shardLookahead(&cfg),
		gwShadowSeed: cfg.Seed ^ 0x51ab,
		d2dSeed:      cfg.Seed ^ 0x0d2d,
		listenSeed:   cfg.Seed ^ 0x115e,
	}
	// Coordinator-side telemetry: the delay stream, ledger counters and
	// the trace sink all accumulate on one goroutine in sorted order.
	e.server.SetObserver(e)

	e.shards = make([]*shard, k)
	for i := range e.shards {
		if e.shards[i], err = newShard(e, i); err != nil {
			return nil, err
		}
	}

	if assign == nil {
		assign = defaultAssign(e.area, k)
	}
	e.owner = make([]int32, e.fleet.Len())
	err = e.buildDevices(func(d *device, first time.Duration, serves bool) error {
		ti := min(max(assign(d.id, e.homePos(d)), 0), k-1)
		e.owner[d.id] = int32(ti)
		return e.shards[ti].place(d, first, serves)
	})
	if err != nil {
		return nil, err
	}
	owner := func(id int) *shard { return e.shards[e.owner[id]] }
	if err := e.scheduleDisruption(owner); err != nil {
		return nil, err
	}
	return e, nil
}

// execute runs the window loop and collects the result.
func (e *sharded) execute() (*Result, *shardDiag, error) {
	if live := e.cfg.Telemetry.Live; live != nil {
		// Publish every recorder — coordinator (delay/airtime stream) and
		// per-shard (tile-local counters) — for the run's duration; a
		// scrape merges them exactly like collect() does at the end.
		defer live.Attach(e.rec)()
		for _, s := range e.shards {
			defer live.Attach(s.rec)()
		}
	}

	e.pool = eventsim.NewPool(len(e.shards), e.phase)
	e.run()
	return e.collect()
}

// homePos is the device's tile-assignment anchor: its fixed position for
// static models, its service-window start position for mobile ones.
func (e *sharded) homePos(d *device) geo.Point {
	if sm, ok := d.node.(mobility.StaticModel); ok {
		return sm.FixedPosition()
	}
	start, _ := d.node.Window()
	if p, ok := d.node.PositionAt(start); ok {
		return p
	}
	return e.area.Center()
}

// phase dispatches one pool phase on one shard. With a span sink
// configured, every tile phase is timed: the sink owns the clock, so the
// engine stays determinism-lint clean, and the SpanEnd is a stack value
// with constant-string names — no allocation per window. Phase C and the
// next window's phase A share one dispatch but keep their own spans.
func (e *sharded) phase(ph, si int) {
	s := e.shards[si]
	switch ph {
	case shardPhaseResolve:
		tok := e.startSpan()
		s.runResolve()
		// Cross-tile import fan-out: every shard scans the window's full
		// transmission set, so this is the replication cost driver.
		e.endSpan(tok, "resolve", si, e.windowStart, len(e.windowTx))
		return
	case shardPhaseDeliver:
		tok := e.startSpan()
		s.runDeliver()
		e.endSpan(tok, "deliver", si, e.deliverStart, len(e.windowBcast))
		// Everything traced so far belongs to the delivered window's flush;
		// the next window's kernel events wait for the next one.
		s.traceMark = len(s.outTrace)
		if !e.kernelDue {
			return
		}
	}
	tok := e.startSpan()
	s.runKernel()
	// Queue depth after the advance: how much future work the tile is
	// carrying into the next window.
	e.endSpan(tok, "kernel", si, e.windowStart, s.es.QueueLen())
}

// startSpan opens a span on the configured sink, if any.
func (e *sharded) startSpan() telemetry.SpanToken {
	if sink := e.cfg.Telemetry.Spans; sink != nil {
		return sink.StartSpan()
	}
	return 0
}

// endSpan closes a span opened by startSpan. It is small enough to inline,
// so a run without a sink pays only the nil check, several times a window.
func (e *sharded) endSpan(tok telemetry.SpanToken, name string, si int, at time.Duration, attr int) {
	if e.cfg.Telemetry.Spans != nil {
		e.emitSpan(tok, name, si, at, attr)
	}
}

// emitSpan stays out of line so that endSpan inlines.
//
//go:noinline
func (e *sharded) emitSpan(tok telemetry.SpanToken, name string, si int, at time.Duration, attr int) {
	e.cfg.Telemetry.Spans.EndSpan(telemetry.SpanEnd{Token: tok, Name: name, Shard: si, At: at, Attr: int64(attr)})
}

// run drives the window loop: the first window's kernel, then per window
// phase B, the coordinator's serial section, and phase C fused with the
// next window's phase A.
func (e *sharded) run() {
	defer e.pool.Close()
	e.setWindow(0)
	e.pool.Run(shardPhaseKernel)
	for {
		w := e.windowStart
		e.windows++
		e.gatherTx()
		e.pool.Run(shardPhaseResolve)

		tok := e.startSpan()
		fresh := e.coordinate()
		e.gatherBcast()
		next := e.nextWindow()
		// The coordinator's serial section; attr is the window's
		// fresh-delivery count, the merge's output volume.
		e.endSpan(tok, "merge", -1, w, fresh)

		e.deliverStart = w
		e.kernelDue = next < e.cfg.Duration
		if e.kernelDue {
			e.setWindow(next)
		}
		e.pool.Run(shardPhaseDeliver)
		e.flushTrace()
		if !e.kernelDue {
			return
		}
	}
}

// setWindow makes the grid window starting at w the next to run.
func (e *sharded) setWindow(w time.Duration) {
	e.windowStart, e.horizon = w, min(w+e.lookahead, e.cfg.Duration)
}

// nextWindow returns the start of the next window to run after the current
// one, or the duration when none is left, counting the idle grid windows in
// between as skipped. A window is idle when no tile has an inbox entry, a
// kernel event or a resolution inside it: it would run nothing but clock
// advances, so the kernels' clocks are advanced to the returned start
// instead. This is the lower bound on time stamp (LBTS) of conservative
// parallel simulation, kept on the window grid so the medium's prune epoch
// is unchanged for every window that resolves a frame.
func (e *sharded) nextWindow() time.Duration {
	h, d, l := e.horizon, e.cfg.Duration, e.lookahead
	if e.dense {
		return h
	}
	t := d + 1 // earliest pending work; past the last window when none
	for _, s := range e.shards {
		if len(s.inSettle) > 0 || len(s.inPlan) > 0 {
			return h
		}
		if len(s.resolves) > 0 {
			t = min(t, s.resolves[0].at) // phase B leaves them sorted
		}
		if at, ok := s.es.NextAt(); ok {
			t = min(t, at)
		}
	}
	if t > d {
		e.skipped += int((d - h + l - 1) / l)
		return d
	}
	if t <= h+l {
		return h // due in the next grid window (or clamped to its start)
	}
	next := (t - 1) / l * l // the grid window (W, W+L] holding t
	e.skipped += int((next - h) / l)
	for _, s := range e.shards {
		s.es.RunUntil(next)
	}
	return next
}

// gatherTx merges the window's transmissions for phase B's import.
func (e *sharded) gatherTx() {
	e.windowTx = e.windowTx[:0]
	for _, s := range e.shards {
		e.windowTx = append(e.windowTx, s.outTx...)
	}
}

// gatherBcast merges the window's broadcasts into phase C's global order.
func (e *sharded) gatherBcast() {
	e.windowBcast = e.bcast.merge(e.shards, func(s *shard) []bcastRec { return s.outBcast }, cmpBcast)
}

// coordinate runs the B/C barrier work: ledger ingest, the single-stream
// airtime histogram, and the MAC control plane, all in intrinsic order. It
// returns the window's gateway-decoded frame count.
func (e *sharded) coordinate() int {
	fresh := e.fresh.merge(e.shards, func(s *shard) []ingestRec { return s.outFresh }, cmpIngest)
	for i := range fresh {
		rec := &fresh[i]
		msgs := e.shards[rec.shard].msgArena[rec.mStart:rec.mEnd]
		n := e.server.Ingest(rec.at, rec.gw, msgs)
		e.rec.AddServerFresh(n)
		e.throughput.Record(rec.at, n)
	}

	air := e.air.merge(e.shards, func(s *shard) []airRec { return s.outAir }, cmpAir)
	for i := range air {
		e.rec.ObserveAirtime(air[i].sec)
	}

	if !e.macOn {
		return len(fresh)
	}
	ops := e.mac.merge(e.shards, func(s *shard) []macOp { return s.outMac }, cmpMacOp)
	for i := range ops {
		if plan, ok := e.applyMAC(&ops[i]); ok {
			sh := e.shards[e.owner[plan.Device]]
			sh.inPlan = append(sh.inPlan, plan)
		}
	}
	return len(fresh)
}

// flushTrace merge-sorts the delivered window's trace events — each tile's
// up to its mark, and the coordinator's — and emits them. A tile's events
// past its mark come from the next window's kernel and wait for its flush.
func (e *sharded) flushTrace() {
	if e.tracer == nil {
		e.coordTrace = e.coordTrace[:0]
		return
	}
	e.traceBuf = e.traceBuf[:0]
	for _, s := range e.shards {
		e.traceBuf = append(e.traceBuf, s.outTrace[:s.traceMark]...)
		s.outTrace = s.outTrace[:copy(s.outTrace, s.outTrace[s.traceMark:])]
	}
	e.traceBuf = append(e.traceBuf, e.coordTrace...)
	e.coordTrace = e.coordTrace[:0]
	slices.SortStableFunc(e.traceBuf, cmpTrace)
	for i := range e.traceBuf {
		ev := e.traceBuf[i]
		ev.Run = e.traceRun
		e.tracer.Emit(ev)
		e.rec.AddTraceEvent()
	}
}

// merger merges one outbox kind across tiles; its buffers are reused across
// windows.
type merger[T any] struct {
	runs [][]T
	buf  []T
}

// merge merges every tile's outbox, each already in cmp order, and returns
// the result, valid until the next merge. A lone tile's outbox is returned
// in place.
func (m *merger[T]) merge(shards []*shard, outbox func(*shard) []T, cmp func(a, b T) int) []T {
	if len(shards) == 1 {
		run := outbox(shards[0])
		if assertSortedRuns {
			checkSortedRuns([][]T{run}, cmp)
		}
		return run
	}
	m.runs = m.runs[:0]
	for _, s := range shards {
		m.runs = append(m.runs, outbox(s))
	}
	m.buf = mergeRuns(m.buf, m.runs, cmp)
	return m.buf
}

// assertSortedRuns makes mergeRuns check that every run it merges is in
// order; the package's tests turn it on.
var assertSortedRuns bool

// mergeRuns merges runs, each already in cmp order, into dst's storage and
// returns the merged slice; equal elements keep run order. A single run is
// returned itself, without copying. It consumes runs' slice headers.
//
//mlorass:hotpath
func mergeRuns[T any](dst []T, runs [][]T, cmp func(a, b T) int) []T {
	if assertSortedRuns {
		checkSortedRuns(runs, cmp)
	}
	if len(runs) == 1 {
		return runs[0]
	}
	dst = dst[:0]
	for {
		best, live := -1, 0
		for i, r := range runs {
			if len(r) == 0 {
				continue
			}
			live++
			if best < 0 || cmp(r[0], runs[best][0]) < 0 {
				best = i
			}
		}
		switch live {
		case 0:
			return dst
		case 1:
			return append(dst, runs[best]...)
		}
		dst = append(dst, runs[best][0])
		runs[best] = runs[best][1:]
	}
}

func checkSortedRuns[T any](runs [][]T, cmp func(a, b T) int) {
	for i, r := range runs {
		if !slices.IsSortedFunc(r, cmp) {
			panic(fmt.Sprintf("experiment: tile %d's outbox is not in merge order", i))
		}
	}
}

// Delivered implements netserver.Observer on the coordinator.
func (e *sharded) Delivered(d netserver.Delivery) {
	e.rec.ObserveDelay(d.Delay().Seconds())
	if e.tracer.Sampled(d.MessageID) {
		e.coordTrace = append(e.coordTrace, telemetry.Event{
			T: d.Arrived, Kind: telemetry.KindDeliver, Msg: d.MessageID,
			Dev: -1, Peer: -1, Gw: d.Gateway, Hops: d.Hops,
			DelayS: d.Delay().Seconds(),
		})
	}
}

// Duplicate implements netserver.Observer on the coordinator.
func (e *sharded) Duplicate(now time.Duration, gw int, m lorawan.Message) {
	e.rec.AddServerDuplicate()
	if e.tracer.Sampled(m.ID) {
		e.coordTrace = append(e.coordTrace, telemetry.Event{
			T: now, Kind: telemetry.KindDuplicate, Msg: m.ID,
			Dev: -1, Peer: -1, Gw: gw, Hops: m.Hops + 1,
		})
	}
}

// collect sums the tiles' channel statistics and telemetry into the world's
// Result.
func (e *sharded) collect() (*Result, *shardDiag, error) {
	diag := &shardDiag{Windows: e.windows, Skipped: e.skipped, Lookahead: e.lookahead, Devices: e.devices}
	var ms radio.MediumStats
	snap := e.rec.Snapshot()
	for _, s := range e.shards {
		ms.Merge(s.medium.Stats())
		diag.Causality += s.causality
		diag.LateRetries += s.lateRetries
		snap.Merge(s.rec.Snapshot())
	}
	res, err := e.world.collect(ms, snap)
	if err != nil {
		return nil, nil, err
	}
	return res, diag, nil
}

// Intrinsic total orders for the cross-tile merges. All comparators are
// package-level capture-free functions so slices.SortFunc allocates nothing.

func cmpResolveRef(a, b resolveRef) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.dev.id != b.dev.id {
		return a.dev.id - b.dev.id
	}
	return int(a.kind) - int(b.kind)
}

func cmpBcast(a, b bcastRec) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.from != b.from {
		return a.from - b.from
	}
	return int(a.seq) - int(b.seq)
}

func cmpIngest(a, b ingestRec) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.from != b.from {
		return a.from - b.from
	}
	return int(a.seq) - int(b.seq)
}

func cmpMacOp(a, b macOp) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.dev != b.dev {
		return a.dev - b.dev
	}
	return int(a.kind) - int(b.kind)
}

func cmpAir(a, b airRec) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	return a.dev - b.dev
}

func traceRank(k telemetry.EventKind) int {
	switch k {
	case telemetry.KindGenerate:
		return 0
	case telemetry.KindRelay:
		return 1
	case telemetry.KindUplink:
		return 2
	case telemetry.KindDeliver:
		return 3
	case telemetry.KindDuplicate:
		return 4
	case telemetry.KindDrop:
		return 5
	}
	return 6
}

func cmpTrace(a, b telemetry.Event) int {
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	if a.Msg != b.Msg {
		if a.Msg < b.Msg {
			return -1
		}
		return 1
	}
	if ra, rb := traceRank(a.Kind), traceRank(b.Kind); ra != rb {
		return ra - rb
	}
	if a.Dev != b.Dev {
		return a.Dev - b.Dev
	}
	if a.Peer != b.Peer {
		return a.Peer - b.Peer
	}
	if a.Gw != b.Gw {
		return a.Gw - b.Gw
	}
	return a.Hops - b.Hops
}
