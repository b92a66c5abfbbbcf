package experiment

import (
	"slices"
	"time"

	"mlorass/internal/disruption"
	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/mobility"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
)

// This file is the sharded execution engine (Config.Shards ≥ 1): the city is
// partitioned into spatial tiles, each tile runs its own event kernel on its
// own goroutine, and the tiles advance in lockstep through conservative
// lookahead windows. Per window (W, W+L]:
//
//   phase A (parallel)  every tile applies its inbox (handover settlements,
//                       downlink plans) and runs its kernel to the window
//                       horizon H = W+L: slot ticks, duty retries, churn.
//                       Transmissions begun are recorded in a per-tile
//                       outbox instead of scheduling kernel resolutions.
//   A/B barrier         the coordinator merges every tile's new
//                       transmissions; each tile imports the foreign ones
//                       into its radio-medium view (order-free: capture
//                       takes a max over the interferer set).
//   phase B (parallel)  each tile resolves its transmissions due by H in
//                       (time, device, kind) order: gateway reception with
//                       keyed shadowing draws, MAC requests, broadcast
//                       records for receivers — all emitted to outboxes.
//   B/C barrier         the coordinator feeds decoded frames to the ledger,
//                       throughput series and delay histogram in intrinsic
//                       (time, sender, seq) order, and replays MAC
//                       operations against the one global ADR controller
//                       and downlink scheduler; downlink plans route to
//                       their device's tile for the next window.
//   phase C (parallel)  each tile delivers the window's broadcasts to its
//                       own devices in global (time, sender, seq) order:
//                       handover reception and neighbour overhearing.
//                       Failed handovers emit settlements routed back to
//                       the sender's tile.
//   C barrier           trace events merge-sort and emit; next window.
//
// Determinism contract: every cross-device random draw is keyed on
// intrinsic identities (seed, sender, frame sequence, receiver) via
// rng.Key*/rng.Seeded, every cross-tile merge is sorted by an intrinsic
// total order, and every cross-device state read happens in a fixed phase —
// so results are BIT-IDENTICAL for every shard count N ≥ 1, every tile
// layout, and every GOMAXPROCS. They are intentionally distinct from the
// serial engine (Shards = 0), whose sequential draw order cannot be
// reproduced concurrently; the goldens are the serial engine's bytes, and
// both engines share one world build (world.go). Divergences are the window-quantised visibility of cross-event
// state and the keyed (rather than sequential) draw streams — documented in
// README "Sharded runs".
//
// Lookahead: L = 2 s, clamped to RX1Delay when the MAC is on, so a downlink
// scheduled from window j (start ≥ uplinkEnd + RX1Delay ≥ W_j + L) is always
// appliable at the start of window j+1 — no tile ever receives an event
// earlier than its local clock (the causality counter, asserted zero by the
// property tests). Duty-cycle retries that would land inside the already-run
// window are clamped to the window grid and counted as lateRetries.

// shardPhase* number the pool phases.
const (
	shardPhaseKernel = iota
	shardPhaseResolve
	shardPhaseDeliver
)

// resolve kinds, ordered: uplinks resolve before downlinks at equal instants.
const (
	rkUplink uint8 = iota
	rkDownlink
)

// MAC coordinator-op kinds, ordered to match phase B execution order.
const (
	macOpUplink uint8 = iota
	macOpReset
)

// txRec is one transmission begun this window, merged into every tile's
// medium view at the A/B barrier.
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
	// dest is the effective handover target (-1 when sink-addressed or
	// preempted by a gateway decode); skip is the originally addressed
	// device, excluded from overhearing either way (as in the serial
	// engine's overhear loop).
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

// macOp is one MAC-plane operation replayed by the coordinator against the
// global controller/scheduler in intrinsic (at, dev, kind) order.
type macOp struct {
	at     time.Duration
	dev    int
	kind   uint8
	gw     int
	snr    radio.DB
	dr     lorawan.DataRate
	powIdx int
	timing netserver.RxTiming
}

// planRec is one committed downlink plan routed to the device's tile.
type planRec struct {
	dev    int
	gw     int
	start  time.Duration
	air    time.Duration
	ack    bool
	cmd    lorawan.LinkADRReq
	hasCmd bool
}

// settleRec reconciles a failed handover back onto the sender: the bundle
// (still in the sender shard's arena) returns to its queue head at the next
// window start.
type settleRec struct {
	at           time.Duration
	sender       int
	shard        int32
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

	overhearOn bool
	plan       *disruption.Plan

	// Intrinsic draw seeds (keyed draws only — no sequential streams).
	gwShadowSeed uint64
	d2dSeed      uint64
	listenSeed   uint64

	// Current window bounds, written by the coordinator between barriers.
	windowStart time.Duration
	horizon     time.Duration

	// Merged per-window views (coordinator-written, shard-read).
	windowTx    []txRec
	windowBcast []bcastRec

	// Coordinator scratch, reused across windows.
	freshBuf   []ingestRec
	airBuf     []airRec
	macBuf     []macOp
	settleBuf  []settleRec
	traceBuf   []telemetry.Event
	coordTrace []telemetry.Event

	windows int
}

// frameKey packs a transmission's intrinsic identity (sender, sequence)
// into one key word. Gateway downlink senders are negative (-1-gw), which
// maps to a distinct high word.
//
//mlorass:hotpath
func frameKey(from int, seq uint32) uint64 {
	return uint64(uint32(int32(from+1)))<<32 | uint64(seq)
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

// runSharded executes a normalized, validated cfg on the windowed sharded
// engine. assign overrides the tile assignment (tests randomise it to prove
// layout invariance); nil selects the default strip partition. cities is as
// for newWorld. The returned diagnostics back the causality and equivalence
// test layer.
func runSharded(cfg Config, assign func(id int, home geo.Point) int, cities *citySet) (*Result, *shardDiag, error) {
	w, err := newWorld(cfg, cities)
	if err != nil {
		return nil, nil, err
	}
	k := max(cfg.Shards, 1)
	e := &sharded{
		world:        w,
		lookahead:    shardLookahead(&cfg),
		overhearOn:   cfg.Scheme != routing.SchemeNoRouting,
		gwShadowSeed: cfg.Seed ^ 0x51ab,
		d2dSeed:      cfg.Seed ^ 0x0d2d,
		listenSeed:   cfg.Seed ^ 0x115e,
	}
	// Coordinator-side telemetry: the delay stream, ledger counters and
	// the trace sink all accumulate on one goroutine in sorted order.
	if e.rec != nil || e.tracer != nil {
		e.server.SetObserver(e)
	}

	e.shards = make([]*shard, k)
	for i := range e.shards {
		medium, err := radio.NewMedium(e.mediumConfig())
		if err != nil {
			return nil, nil, err
		}
		s := &shard{
			eng:    e,
			idx:    i,
			es:     eventsim.New(),
			medium: medium,
			ix:     e.newIndex(),
		}
		if !cfg.Telemetry.Disabled {
			s.rec = telemetry.NewRecorder()
		}
		if e.tracer != nil && s.rec != nil {
			s.es.SetProbe(s.rec)
		}
		s.motionFn = func(id int, now, mid time.Duration) (mobility.Motion, bool) {
			return indexMotion(e.devices[id], now, mid)
		}
		e.shards[i] = s
	}

	if assign == nil {
		assign = defaultAssign(e.area, k)
	}
	e.owner = make([]int32, e.fleet.Len())
	err = e.buildDevices(func(d *device, first time.Duration, serves bool) error {
		ti := min(max(assign(d.id, e.homePos(d)), 0), k-1)
		e.owner[d.id] = int32(ti)
		sh := e.shards[ti]
		if e.macOn {
			d.dlFn = func(end time.Duration) { sh.resolveDown(d, end) }
			d.ackTimeoutFn = func(at time.Duration) { sh.ackTimeout(d, at) }
		}
		d.slotFn = func(now time.Duration) {
			if d.failed {
				return
			}
			sh.tick(d, now)
			sh.scheduleTick(d, now+cfg.MsgInterval)
		}
		d.retryFn = func(later time.Duration) {
			d.retryScheduled = false
			sh.tryUplink(d, later)
		}
		if !serves {
			return nil
		}
		start, end := d.node.Window()
		if _, err := sh.es.At(start, func(time.Duration) { sh.activate(d) }); err != nil {
			return err
		}
		if end < cfg.Duration {
			if _, err := sh.es.At(end, func(time.Duration) { sh.deactivate(d) }); err != nil {
				return err
			}
		}
		sh.scheduleTick(d, first)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := e.scheduleDisruption(); err != nil {
		return nil, nil, err
	}

	if live := cfg.Telemetry.Live; live != nil {
		// Publish every recorder — coordinator (delay/airtime stream) and
		// per-shard (tile-local counters) — for the run's duration; a
		// scrape merges them exactly like collect() does at the end.
		if e.rec != nil {
			defer live.Attach(e.rec)()
		}
		for _, s := range e.shards {
			if s.rec != nil {
				defer live.Attach(s.rec)()
			}
		}
	}

	e.pool = eventsim.NewPool(k, e.phase)
	if err := e.run(); err != nil {
		return nil, nil, err
	}
	res, diag := e.collect()
	return res, diag, nil
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

// scheduleDisruption compiles the plan. Gateway availability is looked up
// intrinsically per instant (Plan.GatewayUp) instead of via mutable flags,
// so tiles never share outage state; device churn schedules owner-tile
// kernel events exactly like the serial engine.
func (e *sharded) scheduleDisruption() error {
	if !e.cfg.Disruption.Enabled() {
		return nil
	}
	plan, err := compileDisruption(&e.cfg, len(e.gws), len(e.devices))
	if err != nil {
		return err
	}
	e.plan = plan
	e.gatewayOutageWindows = plan.OutageWindows()
	for di, failAt := range plan.DeviceFailAt {
		if failAt < 0 || failAt >= e.cfg.Duration {
			continue
		}
		e.deviceFailures++
		d := e.devices[di]
		if d == nil {
			continue // dormant: fails before it could ever serve
		}
		sh := e.shards[e.owner[di]]
		if _, err := sh.es.At(failAt, func(time.Duration) {
			d.failed = true
			sh.deactivate(d)
		}); err != nil {
			return err
		}
	}
	return nil
}

// gwUpAt reports gateway availability at an instant.
//
//mlorass:hotpath
func (e *sharded) gwUpAt(gw int, at time.Duration) bool {
	return e.plan == nil || e.plan.GatewayUp(gw, at)
}

// aliveAt reports whether the device has not yet churned out at an instant.
//
//mlorass:hotpath
func (e *sharded) aliveAt(dev int, at time.Duration) bool {
	return e.plan == nil || e.plan.DeviceAlive(dev, at)
}

// phase dispatches one pool phase on one shard. With a span sink
// configured, every dispatch is timed: the sink owns the clock, so the
// engine stays determinism-lint clean, and the SpanEnd is a stack value
// with constant-string names — no allocation per window.
func (e *sharded) phase(ph, si int) {
	s := e.shards[si]
	sink := e.cfg.Telemetry.Spans
	var tok telemetry.SpanToken
	if sink != nil {
		tok = sink.StartSpan()
	}
	switch ph {
	case shardPhaseKernel:
		s.runKernel()
	case shardPhaseResolve:
		s.runResolve()
	case shardPhaseDeliver:
		s.runDeliver()
	}
	if sink == nil {
		return
	}
	var name string
	var attr int64
	switch ph {
	case shardPhaseKernel:
		// Queue depth after the advance: how much future work the tile
		// is carrying into the next window.
		name, attr = "kernel", int64(s.es.QueueLen())
	case shardPhaseResolve:
		// Cross-tile import fan-out: every shard scans the window's full
		// transmission set, so this is the replication cost driver.
		name, attr = "resolve", int64(len(e.windowTx))
	case shardPhaseDeliver:
		name, attr = "deliver", int64(len(e.windowBcast))
	}
	sink.EndSpan(telemetry.SpanEnd{Token: tok, Name: name, Shard: si, At: e.windowStart, Attr: attr})
}

// run drives the window loop.
func (e *sharded) run() error {
	defer e.pool.Close()
	d := e.cfg.Duration
	for w := time.Duration(0); w < d; {
		h := w + e.lookahead
		if h > d {
			h = d
		}
		e.windowStart, e.horizon = w, h
		e.windows++

		e.pool.Run(shardPhaseKernel)
		if err := e.firstErr(); err != nil {
			return err
		}
		e.gatherTx()
		e.pool.Run(shardPhaseResolve)
		if err := e.firstErr(); err != nil {
			return err
		}
		sink := e.cfg.Telemetry.Spans
		var tok telemetry.SpanToken
		if sink != nil {
			tok = sink.StartSpan()
		}
		e.coordinate()
		e.gatherBcast()
		if sink != nil {
			// The coordinator's serial section; attr is the window's
			// fresh-delivery count, the merge's output volume.
			sink.EndSpan(telemetry.SpanEnd{
				Token: tok, Name: "merge", Shard: -1, At: w, Attr: int64(len(e.freshBuf)),
			})
		}
		e.pool.Run(shardPhaseDeliver)
		e.routeSettlements()
		e.flushTrace()
		w = h
	}
	return nil
}

func (e *sharded) firstErr() error {
	for _, s := range e.shards {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// gatherTx merges the window's transmissions for the A/B barrier import.
func (e *sharded) gatherTx() {
	e.windowTx = e.windowTx[:0]
	for _, s := range e.shards {
		e.windowTx = append(e.windowTx, s.outTx...)
	}
}

// gatherBcast merges and orders the window's broadcasts for phase C.
func (e *sharded) gatherBcast() {
	e.windowBcast = e.windowBcast[:0]
	for _, s := range e.shards {
		e.windowBcast = append(e.windowBcast, s.outBcast...)
	}
	slices.SortFunc(e.windowBcast, cmpBcast)
}

// coordinate runs the B/C barrier work: ledger ingest, the single-stream
// airtime histogram, and the MAC control plane, all in intrinsic order.
func (e *sharded) coordinate() {
	e.freshBuf = e.freshBuf[:0]
	for _, s := range e.shards {
		e.freshBuf = append(e.freshBuf, s.outFresh...)
	}
	slices.SortFunc(e.freshBuf, cmpIngest)
	for i := range e.freshBuf {
		rec := &e.freshBuf[i]
		msgs := e.shards[rec.shard].msgArena[rec.mStart:rec.mEnd]
		fresh := e.server.Ingest(rec.at, rec.gw, msgs)
		e.rec.AddServerFresh(fresh)
		e.throughput.Record(rec.at, fresh)
	}

	e.airBuf = e.airBuf[:0]
	for _, s := range e.shards {
		e.airBuf = append(e.airBuf, s.outAir...)
	}
	slices.SortFunc(e.airBuf, cmpAir)
	for i := range e.airBuf {
		e.rec.ObserveAirtime(e.airBuf[i].sec)
	}

	if !e.macOn {
		return
	}
	e.macBuf = e.macBuf[:0]
	for _, s := range e.shards {
		e.macBuf = append(e.macBuf, s.outMac...)
	}
	slices.SortFunc(e.macBuf, cmpMacOp)
	m := e.server.MAC()
	for i := range e.macBuf {
		op := &e.macBuf[i]
		if op.kind == macOpReset {
			if m.ADR != nil {
				m.ADR.Reset(op.dev)
			}
			continue
		}
		plan, ok := m.OnUplink(op.dev, op.gw, op.snr, op.dr, op.powIdx, e.confirmed, op.at, op.timing)
		if !ok {
			continue
		}
		sh := e.shards[e.owner[plan.Device]]
		sh.inPlan = append(sh.inPlan, planRec{
			dev:    plan.Device,
			gw:     plan.Gateway,
			start:  plan.Start,
			air:    plan.AirTime,
			ack:    plan.Ack,
			cmd:    plan.Cmd,
			hasCmd: plan.HasCmd,
		})
	}
}

// routeSettlements distributes failed-handover reconciliations to their
// senders' tiles in intrinsic order.
func (e *sharded) routeSettlements() {
	e.settleBuf = e.settleBuf[:0]
	for _, s := range e.shards {
		e.settleBuf = append(e.settleBuf, s.outSettle...)
	}
	slices.SortFunc(e.settleBuf, cmpSettle)
	for _, st := range e.settleBuf {
		sh := e.shards[st.shard]
		sh.inSettle = append(sh.inSettle, st)
	}
}

// flushTrace merge-sorts the window's trace events and emits them.
func (e *sharded) flushTrace() {
	if e.tracer == nil {
		e.coordTrace = e.coordTrace[:0]
		return
	}
	e.traceBuf = e.traceBuf[:0]
	for _, s := range e.shards {
		e.traceBuf = append(e.traceBuf, s.outTrace...)
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

// collect sums the tiles' counters, channel statistics and telemetry into
// the world's Result.
func (e *sharded) collect() (*Result, *shardDiag) {
	diag := &shardDiag{Windows: e.windows, Lookahead: e.lookahead, Devices: e.devices}
	var c counters
	var ms radio.MediumStats
	snap := e.rec.Snapshot()
	for _, s := range e.shards {
		c.add(&s.counters)
		st := s.medium.Stats()
		ms.Transmissions += st.Transmissions
		ms.Receptions += st.Receptions
		ms.Collisions += st.Collisions
		ms.BelowSensitivity += st.BelowSensitivity
		ms.OutOfRange += st.OutOfRange
		diag.Causality += s.causality
		diag.LateRetries += s.lateRetries
		snap.Merge(s.rec.Snapshot())
	}
	return e.world.collect(&c, ms, snap), diag
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

func cmpSettle(a, b settleRec) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	return a.sender - b.sender
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
