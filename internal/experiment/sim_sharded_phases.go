package experiment

import (
	"slices"
	"time"

	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/mobility"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
	"mlorass/internal/rng"
	"mlorass/internal/telemetry"
)

// shard is one spatial tile: an event kernel over the devices it owns, with
// its own event queue, radio-medium view, spatial index and telemetry
// recorder, running the device protocol (kernel.go) on them. All cross-tile
// state flows through the out*/in* window buffers, exchanged at the
// coordinator's barriers — no shard ever writes another shard's state.
// Phase B reads other tiles' devices only where that state is fixed for the
// phase: flight intervals, listen fractions, trajectories, the plan.
type shard struct {
	*world
	coord  *sharded
	idx    int
	es     *eventsim.Simulator
	medium *radio.Medium
	// rec is the tile's own recorder; the world's belongs to the
	// coordinator.
	rec *telemetry.Recorder
	err error

	// activeList holds the in-service device ids, in activation order;
	// spatial-index rebuilds read it.
	activeList []int
	activeDead int
	ix         *devIndex
	// motionFn is the prebuilt motion source for index rebuilds, so no
	// per-rebuild closure exists.
	motionFn motionSource

	// gwCands is the gateway-candidate scratch reused by every
	// receiveAtGateways call.
	gwCands []gwCand

	causality   uint64
	lateRetries uint64

	// resolves are the tile's pending transmission resolutions, executed in
	// (time, device, kind) order by phase B once due; entries beyond the
	// horizon carry over (an airtime may span windows). resolvesUnsorted
	// notes an entry appended out of that order, so phase B sorts only then.
	resolves         []resolveRef
	resolvesUnsorted bool

	// msgArena holds this window's resolved message bundles; broadcast,
	// ingest, and settlement records span into it. Reset each phase B,
	// after last window's settlements were applied.
	msgArena []lorawan.Message

	// Outboxes. outTx and outAir fill in phase A (outAir is sorted at its
	// end when airUnsorted notes an out-of-order entry), the rest in phase B
	// in resolve order, so the coordinator merges all but outTx without
	// sorting. outTx stays empty on a lone tile: no other tile imports it.
	outTx       []txRec
	outAir      []airRec
	airUnsorted bool
	outFresh    []ingestRec
	outBcast    []bcastRec
	outMac      []macOp

	// outTrace holds sampled events not yet flushed; those before
	// traceMark belong to the window being flushed.
	outTrace  []telemetry.Event
	traceMark int

	// Inboxes for the next window's phase A: downlink plans from the
	// coordinator, and this tile's own missed handovers.
	inPlan   []netserver.DownlinkPlan
	inSettle []settleRec
}

// newShard builds tile idx of the coordinator e.
func newShard(e *sharded, idx int) (*shard, error) {
	w := &e.world
	medium, err := radio.NewMedium(w.mediumConfig())
	if err != nil {
		return nil, err
	}
	s := &shard{
		world: w, coord: e, idx: idx, es: eventsim.New(), medium: medium,
		rec: telemetry.NewRecorder(), ix: w.newIndex(),
		motionFn: func(id int, now, mid time.Duration) (mobility.Motion, bool) {
			return indexMotion(w.devices[id], now, mid)
		},
	}
	// The kernel probe is wired only while tracing: its per-event interface
	// call is measurable, the plain recorders are not.
	if w.tracer != nil {
		s.es.SetProbe(s.rec)
	}
	return s, nil
}

// ---------------------------------------------------------------- phase A

// runKernel applies the tile's inbox from the previous window and runs its
// kernel to the horizon. Settlements are applied before downlink plans, both
// in intrinsic (time, device) order, then the window's slot ticks, retries,
// and churn events execute.
func (s *shard) runKernel() {
	e := s.coord
	w := e.windowStart

	s.outTx = s.outTx[:0]
	s.outAir = s.outAir[:0]

	// Failed handovers from last window: the bundle (still in this tile's
	// previous-window arena) returns to the sender's queue head, and a retry
	// is armed.
	for _, st := range s.inSettle {
		if st.at > w {
			s.causality++
		}
		d := s.devices[st.sender]
		s.rec.AddQueueDrops(d.queue.PushFront(s.msgArena[st.mStart:st.mEnd]))
		s.scheduleNextAttempt(d)
	}
	s.inSettle = s.inSettle[:0]

	// Downlink plans committed by the coordinator last window. The
	// lookahead bound L ≤ RX1Delay guarantees start ≥ this window's start;
	// anything earlier would be a causality violation.
	for i := range s.inPlan {
		p := &s.inPlan[i]
		if p.Start < w {
			s.causality++
		}
		s.sendDownlink(s.devices[p.Device], p)
	}
	s.inPlan = s.inPlan[:0]

	if err := s.es.RunUntil(e.horizon); err != nil {
		s.err = err
	}
	// Same-instant transmissions leave the kernel in scheduling order; the
	// coordinator merges airtimes in (time, device) order.
	if s.airUnsorted {
		slices.SortFunc(s.outAir, cmpAir)
		s.airUnsorted = false
	}
}

// ---------------------------------------------------------------- phase B

// runResolve imports the window's foreign transmissions as interference and
// executes the tile's due resolutions in (time, device, kind) order.
// Pointer-retention safety: resolutions run in ascending end-time order and
// receive prunes with cutoff = the resolving frame's start, which never
// exceeds any still-pending frame's end — so a pending pendTx/dlTx is never
// recycled under the device holding it.
func (s *shard) runResolve() {
	e := s.coord
	h := e.horizon
	s.msgArena = s.msgArena[:0]
	s.outFresh = s.outFresh[:0]
	s.outBcast = s.outBcast[:0]
	s.outMac = s.outMac[:0]
	for i := range e.windowTx {
		t := &e.windowTx[i]
		if t.shard == int32(s.idx) {
			continue
		}
		s.medium.ImportTx(t.from, t.pos, t.pow, t.start, t.end)
	}
	if s.resolvesUnsorted {
		slices.SortFunc(s.resolves, cmpResolveRef)
		s.resolvesUnsorted = false
	}
	kept := s.resolves[:0]
	for _, r := range s.resolves {
		if r.at > h {
			kept = append(kept, r)
			continue
		}
		if r.kind == rkUplink {
			s.resolveUp(r.dev, r.at)
		} else {
			s.resolveDownlink(r.dev, r.at)
		}
	}
	s.resolves = kept
}

// resolveUp completes an uplink at its end: gateway reception with keyed
// draws, the MAC reaction or retry bookkeeping, the handover verdict, and the
// broadcast record receivers consume in phase C. The verdict reads the
// target's flight intervals and listen fraction, which only phase A writes,
// its stateless trajectory and the disruption plan, so the target's own tile
// may run concurrently. A missed handover settles back next window.
//
//mlorass:hotpath
func (s *shard) resolveUp(d *device, now time.Duration) {
	tx, frame, dest := d.pendTx, d.pendFrame, d.pendDest
	d.busy = false
	d.pendTx = nil

	gw, rssi := s.receiveAtGateways(tx, frame.Seq, now)

	// The bundle's window-arena copy: the coordinator's ledger ingest,
	// phase C receivers, and a possible next-window settlement span it.
	mStart := int32(len(s.msgArena))
	s.msgArena = append(s.msgArena, frame.Messages...)
	mEnd := int32(len(s.msgArena))

	bDest := dest
	switch {
	case gw >= 0:
		// Delivered: a gateway decode preempts any handover addressing.
		bDest = -1
		s.decoded(d, &frame, gw, rssi, now)
		s.outFresh = append(s.outFresh, ingestRec{
			at: now, from: d.id, seq: frame.Seq, gw: gw,
			shard: int32(s.idx), mStart: mStart, mEnd: mEnd,
		})
	case dest >= 0:
		// The target's tile applies a received bundle in phase C; a miss
		// returns to this device's queue head at the next window's start.
		if !s.handoverSent(d, tx.Pos, &frame, dest, now) {
			s.inSettle = append(s.inSettle, settleRec{
				at: now, sender: d.id, mStart: mStart, mEnd: mEnd,
			})
			bDest = -1
		}
		s.scheduleNextAttempt(d)
	default:
		s.requeue(d, frame.Messages)
	}

	if bDest >= 0 || s.overhearOn {
		s.outBcast = append(s.outBcast, bcastRec{
			at: now, from: d.id, seq: frame.Seq, shard: int32(s.idx),
			dest: bDest, skip: dest, pow: d.txPowDBm, pos: tx.Pos,
			advRCAETX:   frame.AdvertisedRCAETX,
			advQueueLen: frame.AdvertisedQueueLen,
			mStart:      mStart, mEnd: mEnd,
		})
	}
}

// ---------------------------------------------------------------- phase C

// runDeliver walks the window's merged broadcasts in global (time, sender,
// seq) order, applying received handovers to targets this tile owns and
// overhearing across the tile's own spatial index. Every random draw is
// keyed on (frame, receiver), so outcomes are identical for every tile
// layout even though each tile only updates its own receivers.
func (s *shard) runDeliver() {
	e := s.coord
	for i := range e.windowBcast {
		b := &e.windowBcast[i]
		msgs := e.shards[b.shard].msgArena[b.mStart:b.mEnd]
		if b.dest >= 0 && int(e.owner[b.dest]) == s.idx {
			s.handover(s.devices[b.dest], b.from, msgs, b.at)
		}
		if s.overhearOn {
			s.overhear(lorawan.Frame{
				From:               b.from,
				Seq:                b.seq,
				Messages:           msgs,
				AdvertisedRCAETX:   b.advRCAETX,
				AdvertisedQueueLen: b.advQueueLen,
			}, b.pos, b.pow, b.skip, b.at)
		}
	}
}

// The tile machinery the device protocol calls: a buffered trace, retries
// clamped to the window grid, receptiveness from flight intervals and the
// disruption plan, resolutions in phase B, and keyed reception draws.

// trace buffers a sampled event for the coordinator's sorted flush.
//
//mlorass:hotpath
func (s *shard) trace(e telemetry.Event) {
	s.outTrace = append(s.outTrace, e)
}

// schedule clamps instants the kernel has already passed to its current
// clock (the next window runs them first). Clamps count as lateRetries:
// benign window-grid quantisation of duty-cycle retries, not causality
// violations.
//
//mlorass:hotpath
func (s *shard) schedule(at time.Duration, fn eventsim.Event) bool {
	if now := s.es.Now(); at < now {
		at = now
		s.lateRetries++
	}
	_, err := s.es.At(at, fn)
	return err == nil
}

// receptive reports whether d is alive and off the air at instant at.
//
//mlorass:hotpath
func (s *shard) receptive(d *device, at time.Duration) bool {
	return !d.busyAt(at) && s.alive(d, at)
}

// began records the transmission for the window's import and this tile's
// phase B, and an uplink's flight interval and airtime.
//
//mlorass:hotpath
func (s *shard) began(d *device, tx *radio.Transmission, kind uint8) {
	if len(s.coord.shards) > 1 {
		s.outTx = append(s.outTx, txRec{
			shard: int32(s.idx), from: tx.From, pos: tx.Pos, pow: tx.PowerDBm,
			start: tx.Start, end: tx.End,
		})
	}
	r := resolveRef{at: tx.End, dev: d, kind: kind}
	if n := len(s.resolves); n > 0 && cmpResolveRef(s.resolves[n-1], r) > 0 {
		s.resolvesUnsorted = true
	}
	s.resolves = append(s.resolves, r)
	if kind == rkUplink {
		d.prevFlightSta, d.prevFlightEnd = d.flightStart, d.flightEnd
		d.flightStart, d.flightEnd = tx.Start, tx.End
		a := airRec{at: tx.Start, dev: d.id, sec: (tx.End - tx.Start).Seconds()}
		if n := len(s.outAir); n > 0 && cmpAir(s.outAir[n-1], a) > 0 {
			s.airUnsorted = true
		}
		s.outAir = append(s.outAir, a)
	}
}

// receive keys the shadowing draw on (frame, receiver) and prunes by the
// window start, not tx.Start: the per-frame cutoff is resolve-order
// dependent, and resolve interleaving is exactly what a partition changes.
// The window-start epoch keeps the interferer set a pure function of the
// global transmission history.
//
//mlorass:hotpath
func (s *shard) receive(tx *radio.Transmission, pos geo.Point, fk uint64, rx int) radio.Reception {
	return s.medium.ReceiveKeyed(tx, pos, rng.Key2(s.coord.gwShadowSeed, fk, uint64(rx+1)), s.coord.windowStart)
}
