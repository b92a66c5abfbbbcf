package experiment

import (
	"slices"
	"time"

	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/mac"
	"mlorass/internal/radio"
	"mlorass/internal/rng"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
)

// shard is one spatial tile: its own event kernel, radio-medium view,
// spatial index, and telemetry recorder over the devices it owns. All
// cross-tile state flows through the out*/in* window buffers, exchanged at
// the coordinator's barriers — no shard ever writes another shard's state.
// Phase B reads other tiles' devices only where that state is fixed for the
// phase: flight intervals, listen fractions, trajectories, the plan.
type shard struct {
	counters
	eng    *sharded
	idx    int
	es     *eventsim.Simulator
	medium *radio.Medium
	rec    *telemetry.Recorder
	err    error

	activeList []int
	activeDead int
	ix         *devIndex
	motionFn   motionSource

	gwCands []gwCand

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
	inPlan   []planRec
	inSettle []settleRec
}

// trace buffers a sampled event for the coordinator's sorted flush. Callers
// have already checked Sampled.
//
//mlorass:hotpath
func (s *shard) trace(e telemetry.Event) {
	s.outTrace = append(s.outTrace, e)
}

// schedAt schedules fn, clamping instants the kernel has already passed to
// its current clock (the next window runs them first). Clamps count as
// lateRetries: benign window-grid quantisation of duty-cycle retries, not
// causality violations.
//
//mlorass:hotpath
func (s *shard) schedAt(at time.Duration, fn eventsim.Event) bool {
	if now := s.es.Now(); at < now {
		at = now
		s.lateRetries++
	}
	_, err := s.es.At(at, fn)
	return err == nil
}

func (s *shard) activate(d *device) {
	if !s.eng.aliveAt(d.id, s.es.Now()) {
		return // churned out before its service window opened
	}
	d.everActive = true
	s.activeList = append(s.activeList, d.id)
	s.ix.activate(d.id, s.es.Now(), s.motionFn)
}

func (s *shard) deactivate(d *device) {
	s.activeDead++
	if s.activeDead*2 > len(s.activeList) {
		// Phase C of this window still overhears at instants from the
		// window start on, so keep every device alive at that instant,
		// not only those alive at the kernel's clock.
		w := s.eng.windowStart
		kept := s.activeList[:0]
		for _, id := range s.activeList {
			z := s.eng.devices[id]
			_, end := z.node.Window()
			if s.eng.aliveAt(id, w) && w < end {
				kept = append(kept, id)
			}
		}
		s.activeList = kept
		s.activeDead = 0
	}
}

func (s *shard) scheduleTick(d *device, at time.Duration) {
	_, end := d.node.Window()
	if at >= s.eng.cfg.Duration || at >= end {
		return
	}
	if _, err := s.es.At(at, d.slotFn); err != nil {
		return
	}
}

// ---------------------------------------------------------------- phase A

// runKernel applies the tile's inbox from the previous window and runs its
// kernel to the horizon. Settlements are applied before downlink plans, both
// in intrinsic (time, device) order, then the window's slot ticks, retries,
// and churn events execute.
func (s *shard) runKernel() {
	e := s.eng
	w := e.windowStart

	s.outTx = s.outTx[:0]
	s.outAir = s.outAir[:0]

	// Failed handovers from last window: the bundle (still in this tile's
	// previous-window arena) returns to the sender's queue head, and a retry
	// is armed like the serial engine does at resolve time.
	for _, st := range s.inSettle {
		if st.at > w {
			s.causality++
		}
		d := e.devices[st.sender]
		d.queue.PushFront(s.msgArena[st.mStart:st.mEnd])
		s.scheduleNextAttempt(d)
	}
	s.inSettle = s.inSettle[:0]

	// Downlink plans committed by the coordinator last window. The
	// lookahead bound L ≤ RX1Delay guarantees start ≥ this window's start;
	// anything earlier would be a causality violation.
	for i := range s.inPlan {
		p := &s.inPlan[i]
		if p.start < w {
			s.causality++
		}
		s.sendDownlink(e.devices[p.dev], p)
	}
	s.inPlan = s.inPlan[:0]

	if err := s.es.RunUntil(e.horizon); err != nil {
		s.err = err
	}
	// Same-instant transmissions leave the kernel in scheduling order; the
	// coordinator merges airtimes in (time, device) order.
	slices.SortFunc(s.outAir, cmpAir)
}

// tick mirrors sim.tick with intrinsic message identity: the estimator
// observation, the listen fraction, this slot's generated message, and the
// uplink attempt.
//
//mlorass:hotpath
func (s *shard) tick(d *device, now time.Duration) {
	e := s.eng
	if d.failed || !d.node.Active(now) {
		return
	}

	tDelta := d.duty.NextFree() - now
	if tDelta < 0 {
		tDelta = 0
	}
	d.est.Observe(now, d.acked, e.contactCapacityPPS, tDelta)
	d.acked = false

	switch e.cfg.Class {
	case lorawan.ClassQueueA:
		d.listenFraction = lorawan.QueueAListenFraction(
			d.est.Phi(), e.gwCfg.PhiMax, d.queue.Len(), e.cfg.QueueMax)
	default:
		d.listenFraction = 1
	}
	d.energy.RecordRx(time.Duration(d.listenFraction * float64(e.cfg.MsgInterval)))

	// Message IDs are intrinsic — (device+1)<<32 | per-device counter — so
	// identity never depends on cross-device event interleaving.
	d.msgSeq++
	id := intrinsicMsgID(d.id, d.msgSeq)
	s.generated++
	s.rec.AddGenerated()
	traced := e.tracer.Sampled(id)
	if traced {
		s.trace(telemetry.Event{
			T: now, Kind: telemetry.KindGenerate, Msg: id,
			Dev: d.id, Peer: -1, Gw: -1,
		})
	}
	if !d.queue.Push(lorawan.Message{
		ID:      id,
		Origin:  d.id,
		Created: now,
		Via:     -1,
	}) {
		s.rec.AddQueueDrop()
		if traced {
			s.trace(telemetry.Event{
				T: now, Kind: telemetry.KindDrop, Msg: id,
				Dev: d.id, Peer: -1, Gw: -1,
			})
		}
	}
	d.attempts = 0

	s.tryUplink(d, now)
}

// tryUplink mirrors sim.tryUplink.
//
//mlorass:hotpath
func (s *shard) tryUplink(d *device, now time.Duration) {
	if d.busy || d.awaitingAck || d.failed || d.queue.Len() == 0 || !d.node.Active(now) {
		return
	}
	if !d.duty.CanSend(now) {
		if !d.retryScheduled {
			d.retryScheduled = true
			if !s.schedAt(d.duty.NextFree(), d.retryFn) {
				d.retryScheduled = false
			}
		}
		return
	}
	dest := -1
	count := lorawan.MaxBundle
	if d.fwdTarget >= 0 {
		if now < d.fwdExpiry && s.stillInRange(d, d.fwdTarget, now) {
			dest = d.fwdTarget
			if d.fwdCount < count {
				count = d.fwdCount
			}
		} else {
			d.fwdTarget = -1
		}
	}
	s.transmit(d, now, dest, count)
}

// stillInRange checks the handover target with intrinsic reads only: churn
// via the disruption plan, position via the stateless trajectory — the
// target may live on any tile.
func (s *shard) stillInRange(d *device, dest int, now time.Duration) bool {
	e := s.eng
	if !e.aliveAt(dest, now) {
		return false
	}
	dpos, ok1 := d.pos(now)
	tpos, ok2 := e.devices[dest].node.PositionAt(now)
	return ok1 && ok2 && dpos.Dist(tpos) <= e.cfg.D2DRangeM
}

// transmit mirrors sim.transmit, recording the flight interval and emitting
// the transmission to the window outbox instead of scheduling a kernel
// resolution.
//
//mlorass:hotpath
func (s *shard) transmit(d *device, now time.Duration, dest, count int) {
	pos, ok := d.pos(now)
	if !ok {
		return
	}
	if count > lorawan.MaxBundle {
		count = lorawan.MaxBundle
	}
	bundle := d.bundle[:0]
	if dest < 0 {
		bundle = d.queue.PopNInto(count, bundle)
	} else {
		bundle = d.queue.PopNotViaInto(count, dest, bundle)
	}
	d.bundle = bundle[:0]
	if len(bundle) == 0 {
		return
	}

	d.seq++
	frame := lorawan.Frame{
		From:               d.id,
		Seq:                d.seq,
		Messages:           bundle,
		AdvertisedRCAETX:   d.est.RCAETX(),
		AdvertisedQueueLen: d.queue.Len() + len(bundle),
	}
	phy := s.eng.uplinkPHY(d)
	airtime := phy.Airtime(frame.PayloadBytes())
	end := now + airtime
	tx := s.medium.Begin(d.id, pos, d.txPowDBm, now, end, nil)

	d.busy = true
	d.duty.Record(now, airtime)
	d.energy.RecordTx(airtime)
	d.framesSent++
	d.msgSends += uint64(len(bundle))
	s.rec.AddFrame()
	s.rec.AddUplinkSF(int(phy.SF))

	d.prevFlightSta, d.prevFlightEnd = d.flightStart, d.flightEnd
	d.flightStart, d.flightEnd = now, end

	d.pendTx = tx
	d.pendFrame = frame
	d.pendDest = dest
	s.outTx = append(s.outTx, txRec{
		shard: int32(s.idx), from: d.id, pos: pos, pow: d.txPowDBm,
		start: now, end: end,
	})
	s.outAir = append(s.outAir, airRec{at: now, dev: d.id, sec: airtime.Seconds()})
	s.resolves = append(s.resolves, resolveRef{at: end, dev: d, kind: rkUplink})
}

func (s *shard) scheduleNextAttempt(d *device) {
	if d.retryScheduled || d.queue.Len() == 0 {
		return
	}
	d.retryScheduled = true
	if !s.schedAt(d.duty.NextFree(), d.retryFn) {
		d.retryScheduled = false
	}
}

// sendDownlink mirrors sim.sendDownlink from a coordinator-committed plan.
// dlSeq keys the downlink's shadowing draw; the frame also joins the window
// outbox so other tiles see its interference.
func (s *shard) sendDownlink(d *device, p *planRec) {
	e := s.eng
	tx := s.medium.Begin(-1-p.gw, e.gws[p.gw], e.gwTxPowDBm,
		p.start, p.start+p.air, nil)
	d.dlTx = tx
	d.dlAck = p.ack
	d.dlCmd = p.cmd
	d.dlHasCmd = p.hasCmd
	d.dlSeq++
	s.downlinks++
	s.rec.AddDownlink()
	s.outTx = append(s.outTx, txRec{
		shard: int32(s.idx), from: -1 - p.gw, pos: e.gws[p.gw],
		pow: e.gwTxPowDBm, start: p.start, end: p.start + p.air,
	})
	s.resolves = append(s.resolves, resolveRef{at: p.start + p.air, dev: d, kind: rkDownlink})
}

// ---------------------------------------------------------------- phase B

// runResolve imports the window's foreign transmissions as interference and
// executes the tile's due resolutions in (time, device, kind) order.
// Pointer-retention safety: resolutions run in ascending end-time order and
// receive prunes with cutoff = the resolving frame's start, which never
// exceeds any still-pending frame's end — so a pending pendTx/dlTx is never
// recycled under the device holding it.
func (s *shard) runResolve() {
	e := s.eng
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
			s.resolveUp(r.dev, r.at)
		} else {
			s.resolveDown(r.dev, r.at)
		}
	}
	s.resolves = kept
}

// resolveUp mirrors sim.resolve: gateway reception, MAC reaction or retry
// bookkeeping, the handover verdict, and the broadcast record receivers
// consume in phase C. A missed handover settles back next window.
//
//mlorass:hotpath
func (s *shard) resolveUp(d *device, now time.Duration) {
	e := s.eng
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
		// Delivered: a gateway decode preempts any handover addressing,
		// exactly like the serial switch.
		bDest = -1
		s.rec.AddUplinkDelivery()
		if e.tracer != nil {
			for _, m := range frame.Messages {
				if e.tracer.Sampled(m.ID) {
					s.trace(telemetry.Event{
						T: now, Kind: telemetry.KindUplink, Msg: m.ID,
						Dev: d.id, Peer: -1, Gw: gw, Hops: m.Hops + 1,
					})
				}
			}
		}
		s.outFresh = append(s.outFresh, ingestRec{
			at: now, from: d.id, seq: frame.Seq, gw: gw,
			shard: int32(s.idx), mStart: mStart, mEnd: mEnd,
		})
		if e.macOn {
			s.macUplink(d, gw, rssi, now)
		} else {
			s.uplinkAcked(d)
		}
	case dest >= 0:
		// One handover attempt per decision. The target's tile applies a
		// received bundle in phase C; a miss returns to this device's queue
		// head at the next window's start.
		d.fwdTarget = -1
		s.handoverAttempts++
		if !s.handoverReceived(tx.Pos, d.id, frame.Seq, dest, now) {
			s.handoverLostMsgs += uint64(len(frame.Messages))
			s.inSettle = append(s.inSettle, settleRec{
				at: now, sender: d.id, mStart: mStart, mEnd: mEnd,
			})
			bDest = -1
		}
		s.scheduleNextAttempt(d)
	default:
		d.queue.PushFront(frame.Messages)
		d.attempts++
		if !e.retry.Exhausted(d.attempts) {
			s.scheduleNextAttempt(d)
		}
	}

	if bDest >= 0 || e.overhearOn {
		s.outBcast = append(s.outBcast, bcastRec{
			at: now, from: d.id, seq: frame.Seq, shard: int32(s.idx),
			dest: bDest, skip: dest, pow: d.txPowDBm, pos: tx.Pos,
			advRCAETX:   frame.AdvertisedRCAETX,
			advQueueLen: frame.AdvertisedQueueLen,
			mStart:      mStart, mEnd: mEnd,
		})
	}
}

// handoverReceived mirrors sim.resolveHandover's reception test, run on the
// sender's tile in phase B: the target must be awake, alive, off the air,
// listening and in range at the frame's end. It reads the target's flight
// intervals and listen fraction, which only phase A writes, its stateless
// trajectory and the disruption plan, so the target's own tile may run
// concurrently.
func (s *shard) handoverReceived(pos geo.Point, from int, seq uint32, dest int, at time.Duration) bool {
	e := s.eng
	target := e.devices[dest]
	if target.busyAt(at) || !e.aliveAt(dest, at) || !s.listeningAt(target, from, seq) {
		return false
	}
	tpos, ok := target.node.PositionAt(at)
	return ok && pos.Dist(tpos) <= e.cfg.D2DRangeM
}

// receiveAtGateways mirrors sim.receiveAtGateways with intrinsic gateway
// availability and a keyed shadowing draw per (frame, gateway).
//
//mlorass:hotpath
func (s *shard) receiveAtGateways(tx *radio.Transmission, seq uint32, now time.Duration) (int, radio.DBm) {
	e := s.eng
	cands := s.gwCands[:0]
	maxR := e.cfg.GatewayRangeM
	for i, gp := range e.gws {
		if !e.gwUpAt(i, now) {
			continue
		}
		if dx := tx.Pos.X - gp.X; dx > maxR || dx < -maxR {
			continue
		}
		if dy := tx.Pos.Y - gp.Y; dy > maxR || dy < -maxR {
			continue
		}
		if d := tx.Pos.Dist(gp); d <= maxR {
			c := gwCand{idx: i, dist: d}
			j := len(cands)
			cands = append(cands, c)
			for j > 0 && (cands[j-1].dist > c.dist ||
				(cands[j-1].dist == c.dist && cands[j-1].idx > c.idx)) {
				cands[j] = cands[j-1]
				j--
			}
			cands[j] = c
		}
	}
	s.gwCands = cands[:0]
	fk := frameKey(tx.From, seq)
	for _, c := range cands {
		key := rng.Key2(e.gwShadowSeed, fk, uint64(c.idx+1))
		// Prune by window start, not tx.Start: the per-frame cutoff is
		// resolve-order dependent, and resolve interleaving is exactly what
		// a partition changes.
		if rec := s.medium.ReceiveKeyed(tx, e.gws[c.idx], key, e.windowStart); rec.OK() {
			return c.idx, rec.RSSIDBm
		}
	}
	return -1, 0
}

// macUplink mirrors sim.macUplink, emitting the network-server reaction as
// a coordinator op (replayed in intrinsic order against the one global ADR
// controller and scheduler) while the device-side ack window opens here.
func (s *shard) macUplink(d *device, gw int, rssi radio.DBm, now time.Duration) {
	e := s.eng
	snr := rssi.Sub(e.noiseFloor)
	s.outMac = append(s.outMac, macOp{
		at: now, dev: d.id, kind: macOpUplink, gw: gw, snr: snr,
		dr: d.dr, powIdx: d.txPowIdx, timing: e.rxTiming(d),
	})
	if !e.confirmed {
		s.uplinkAcked(d)
		return
	}
	d.awaitingAck = true
	// RX2Delay ≥ lookahead, so the deadline is strictly beyond the horizon
	// and stays a plain kernel event.
	deadline := now + e.cfg.MAC.RX2Delay + e.rxTiming(d).RX2Air + time.Millisecond
	h, err := s.es.At(deadline, d.ackTimeoutFn)
	if err != nil {
		d.awaitingAck = false
		s.uplinkAcked(d)
		return
	}
	d.ackTimeoutH = h
}

func (s *shard) uplinkAcked(d *device) {
	d.acked = true
	d.attempts = 0
	d.fwdTarget = -1
	d.noSendBack = d.noSendBack[:0]
	s.scheduleNextAttempt(d)
}

// resolveDown mirrors sim.resolveDownlink with partition-invariant gates
// (flight intervals, the disruption plan) and a keyed shadowing draw. An
// ADR history reset becomes a coordinator op so the global controller
// applies it in intrinsic order.
func (s *shard) resolveDown(d *device, at time.Duration) {
	e := s.eng
	tx := d.dlTx
	if tx == nil || tx.End != at {
		return
	}
	d.dlTx = nil
	pos, ok := d.pos(at)
	if !ok || d.busyAt(at) || !e.aliveAt(d.id, at) ||
		tx.Pos.Dist(pos) > e.cfg.GatewayRangeM {
		return
	}
	key := rng.Key2(e.gwShadowSeed, frameKey(tx.From, d.dlSeq), uint64(d.id+1))
	// The window-start prune epoch keeps the interferer set a pure function
	// of the global transmission history, whatever the partition.
	if !s.medium.ReceiveKeyed(tx, pos, key, e.windowStart).OK() {
		return
	}
	s.downlinkDeliveries++
	s.rec.AddDownlinkDelivery()
	if d.dlHasCmd {
		if ans := d.dlCmd.Apply(); ans.Accepted() {
			if e.cfg.MAC.ADR && d.dlCmd.DataRate != d.dr {
				s.outMac = append(s.outMac, macOp{at: at, dev: d.id, kind: macOpReset})
			}
			d.dr = d.dlCmd.DataRate
			d.txPowIdx = d.dlCmd.TxPowerIndex
			d.txPowDBm = lorawan.TxPowerDBm(radio.DBm(e.cfg.TxPowerDBm), d.txPowIdx)
			s.adrApplied++
			s.rec.AddADRApplied()
		}
	}
	if d.dlAck {
		s.ackReceived(d)
	}
}

func (s *shard) ackReceived(d *device) {
	if !d.awaitingAck {
		return
	}
	d.awaitingAck = false
	s.es.Cancel(d.ackTimeoutH)
	s.uplinkAcked(d)
}

// ackTimeout mirrors sim.ackTimeout; it runs as a kernel event (phase A).
func (s *shard) ackTimeout(d *device, now time.Duration) {
	e := s.eng
	if !d.awaitingAck {
		return
	}
	d.awaitingAck = false
	s.ackTimeouts++
	s.rec.AddAckTimeout()
	d.queue.PushFront(d.pendFrame.Messages)
	if d.failed {
		return
	}
	d.attempts++
	if d.attempts >= e.cfg.MAC.AckRetryMax {
		return
	}
	s.retransmissions++
	s.rec.AddRetransmission()
	at := d.duty.NextFree()
	if b := now + mac.AckBackoff(d.attempts, d.rnd); b > at {
		at = b
	}
	if !d.retryScheduled {
		d.retryScheduled = true
		if !s.schedAt(at, d.retryFn) {
			d.retryScheduled = false
		}
	}
}

// ---------------------------------------------------------------- phase C

// runDeliver walks the window's merged broadcasts in global (time, sender,
// seq) order, applying received handovers to targets this tile owns and
// overhearing across the tile's own spatial index. Every random draw is
// keyed on (frame, receiver), so outcomes are identical for every tile
// layout even though each tile only updates its own receivers.
func (s *shard) runDeliver() {
	e := s.eng
	for i := range e.windowBcast {
		b := &e.windowBcast[i]
		if b.dest >= 0 && int(e.owner[b.dest]) == s.idx {
			s.acceptHandover(b)
		}
		if e.overhearOn {
			s.overhearBcast(b)
		}
	}
}

// acceptHandover mirrors sim.resolveHandover's success path for a handover
// the sender's tile judged received: the bundle joins the target's queue.
func (s *shard) acceptHandover(b *bcastRec) {
	e := s.eng
	target := e.devices[b.dest]
	msgs := e.shards[b.shard].msgArena[b.mStart:b.mEnd]
	s.handoverSuccesses++
	s.handoverMsgs += uint64(len(msgs))
	s.rec.AddRelayHops(len(msgs))
	for _, m := range msgs {
		m.Hops++
		m.Via = b.from
		traced := e.tracer.Sampled(m.ID)
		if traced {
			s.trace(telemetry.Event{
				T: b.at, Kind: telemetry.KindRelay, Msg: m.ID,
				Dev: b.from, Peer: b.dest, Gw: -1, Hops: m.Hops,
			})
		}
		if !target.queue.Push(m) {
			s.rec.AddQueueDrop()
			if traced {
				s.trace(telemetry.Event{
					T: b.at, Kind: telemetry.KindDrop, Msg: m.ID,
					Dev: b.dest, Peer: -1, Gw: -1, Hops: m.Hops,
				})
			}
		}
	}
	target.banSendBack(b.from)
}

// listeningAt mirrors sim.listening with a Bernoulli draw keyed on the
// (frame, receiver) pair instead of the receiver's sequential stream.
//
//mlorass:hotpath
func (s *shard) listeningAt(z *device, from int, seq uint32) bool {
	e := s.eng
	if e.cfg.Class != lorawan.ClassQueueA {
		return true
	}
	if z.listenFraction >= 1 {
		return true
	}
	if z.listenFraction <= 0 {
		return false
	}
	src := rng.Seeded(rng.Key2(e.listenSeed, frameKey(from, seq), uint64(z.id+1)))
	return src.Float64() < z.listenFraction
}

// overhearBcast mirrors sim.overhear over this tile's own spatial index,
// with keyed listening and shadowing draws per (frame, neighbour).
//
//mlorass:hotpath
func (s *shard) overhearBcast(b *bcastRec) {
	e := s.eng
	maxR := e.cfg.D2DRangeM
	now := b.at
	if s.ix.stale(now) {
		s.ix.refresh(now, s.activeList, s.motionFn)
	}
	fk := frameKey(b.from, b.seq)
	frame := lorawan.Frame{
		From:               b.from,
		Seq:                b.seq,
		Messages:           e.shards[b.shard].msgArena[b.mStart:b.mEnd],
		AdvertisedRCAETX:   b.advRCAETX,
		AdvertisedQueueLen: b.advQueueLen,
	}
	for _, zi := range s.ix.candidates(now, b.pos, maxR) {
		if zi == b.from || zi == b.skip {
			continue
		}
		z := e.devices[zi]
		if z.busyAt(now) || !e.aliveAt(zi, now) || z.queue.Len() == 0 {
			continue
		}
		zpos, ok := z.pos(now)
		if !ok {
			continue
		}
		if dx := b.pos.X - zpos.X; dx > maxR || dx < -maxR {
			continue
		}
		if dy := b.pos.Y - zpos.Y; dy > maxR || dy < -maxR {
			continue
		}
		dist := b.pos.Dist(zpos)
		if dist > maxR {
			continue
		}
		if !s.listeningAt(z, b.from, b.seq) {
			continue
		}
		if z.bannedSendBack(b.from) {
			continue
		}
		src := rng.Seeded(rng.Key2(e.d2dSeed, fk, uint64(zi+1)))
		rssi := e.loss.RSSI(b.pow, radio.Meters(dist), &src)
		linkETX := e.link.RCAETX(rssi)
		local := routing.LocalState{
			RCAETX:   z.est.RCAETX(),
			Phi:      z.est.Phi(),
			QueueLen: z.queue.Len(),
		}
		dec := e.policy.OnOverhear(local, frame, linkETX, e.gwCfg.PhiMin, e.gwCfg.PhiMax)
		if !dec.Forward {
			continue
		}
		z.fwdTarget = b.from
		z.fwdCount = dec.Count
		z.fwdExpiry = now + e.cfg.MsgInterval
	}
}
