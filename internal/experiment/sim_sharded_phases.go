package experiment

import (
	"slices"
	"time"

	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
	"mlorass/internal/rng"
	"mlorass/internal/telemetry"
)

// shard is one spatial tile: a kernel over the devices it owns, with its
// own event queue, radio-medium view, spatial index and telemetry recorder.
// All cross-tile state flows through the out*/in* window buffers, exchanged
// at the coordinator's barriers — no shard ever writes another shard's
// state. Phase B reads other tiles' devices only where that state is fixed
// for the phase: flight intervals, listen fractions, trajectories, the plan.
type shard struct {
	kernel
	coord *sharded
	idx   int
	err   error

	causality   uint64
	lateRetries uint64

	// resolves are the tile's pending transmission resolutions, executed in
	// (time, device, kind) order by phase B once due; entries beyond the
	// horizon carry over (an airtime may span windows).
	resolves []resolveRef

	// msgArena holds this window's resolved message bundles; broadcast,
	// ingest, and settlement records span into it. Reset each phase B,
	// after last window's settlements were applied.
	msgArena []lorawan.Message

	// Outboxes. outTx and outAir fill in phase A (outAir is sorted at its
	// end), the rest in phase B in resolve order, so the coordinator merges
	// all but outTx without sorting.
	outTx    []txRec
	outAir   []airRec
	outFresh []ingestRec
	outBcast []bcastRec
	outMac   []macOp

	// outTrace holds sampled events not yet flushed; those before
	// traceMark belong to the window being flushed.
	outTrace  []telemetry.Event
	traceMark int

	// Inboxes for the next window's phase A: downlink plans from the
	// coordinator, and this tile's own missed handovers.
	inPlan   []netserver.DownlinkPlan
	inSettle []settleRec
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
		d.queue.PushFront(s.msgArena[st.mStart:st.mEnd])
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
	slices.SortFunc(s.outAir, cmpAir)
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
	slices.SortFunc(s.resolves, cmpResolveRef)
	kept := s.resolves[:0]
	for _, r := range s.resolves {
		if r.at > h {
			kept = append(kept, r)
			continue
		}
		if r.kind == rkUplink {
			r.dev.resolveFn(r.at)
		} else {
			r.dev.dlFn(r.at)
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

// The tile engine's side of the engine seam: intrinsic message identity, a
// buffered trace, liveness from the disruption plan and flight intervals,
// resolutions in phase B, and draws keyed on (frame, receiver).

//mlorass:hotpath
func (s *shard) msgID(d *device) uint64 {
	d.msgSeq++
	return intrinsicMsgID(d.id, d.msgSeq)
}

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

func (s *shard) alive(d *device, at time.Duration) bool { return s.coord.aliveAt(d.id, at) }

//mlorass:hotpath
func (s *shard) receptive(d *device, at time.Duration) bool {
	return !d.busyAt(at) && s.coord.aliveAt(d.id, at)
}

// peerPos reads the stateless trajectory: the device may live on any tile.
func (s *shard) peerPos(d *device, at time.Duration) (geo.Point, bool) { return d.node.PositionAt(at) }

// liveFrom is the window start: phase C of this window still overhears at
// instants from there on.
func (s *shard) liveFrom() time.Duration { return s.coord.windowStart }

// gatewayUp looks availability up in the plan instead of mutable flags, so
// tiles never share outage state.
//
//mlorass:hotpath
func (s *shard) gatewayUp(gw int, at time.Duration) bool {
	return s.coord.plan == nil || s.coord.plan.GatewayUp(gw, at)
}

// began records the transmission for the window's import and this tile's
// phase B, and an uplink's flight interval and airtime.
//
//mlorass:hotpath
func (s *shard) began(d *device, tx *radio.Transmission, kind uint8) {
	s.outTx = append(s.outTx, txRec{
		shard: int32(s.idx), from: tx.From, pos: tx.Pos, pow: tx.PowerDBm,
		start: tx.Start, end: tx.End,
	})
	s.resolves = append(s.resolves, resolveRef{at: tx.End, dev: d, kind: kind})
	if kind == rkUplink {
		d.prevFlightSta, d.prevFlightEnd = d.flightStart, d.flightEnd
		d.flightStart, d.flightEnd = tx.Start, tx.End
		s.outAir = append(s.outAir, airRec{at: tx.Start, dev: d.id, sec: (tx.End - tx.Start).Seconds()})
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

//mlorass:hotpath
func (s *shard) listenDraw(z *device, fk uint64) float64 {
	src := rng.Seeded(rng.Key2(s.coord.listenSeed, fk, uint64(z.id+1)))
	return src.Float64()
}

// skipShadow does nothing: a declined neighbour's key is never drawn.
func (s *shard) skipShadow() {}

//mlorass:hotpath
func (s *shard) overheardRSSI(z *device, fk uint64, pow radio.DBm, dist float64) radio.DBm {
	src := rng.Seeded(rng.Key2(s.coord.d2dSeed, fk, uint64(z.id+1)))
	return s.loss.RSSI(pow, radio.Meters(dist), &src)
}

// mac queues the operation for the coordinator's replay in intrinsic order.
func (s *shard) mac(op macOp) { s.outMac = append(s.outMac, op) }
