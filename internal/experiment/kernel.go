package experiment

import (
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/radio"
	"mlorass/internal/rng"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
)

// This file is the device protocol every tile runs on the devices it owns:
// the slot tick with the RCA-ETX estimator and the listen gates (Sec.
// VII-A4/5), transmission and retries, the gateway scan, handovers, and
// overhearing with the forwarding policy (Sec. IV-A). The tile machinery it
// calls (trace buffering, retry scheduling, receptiveness, resolution
// bookkeeping and keyed reception) is in sim_sharded_phases.go.

// Resolution kinds, ordered: uplinks resolve before downlinks at equal
// instants.
const (
	rkUplink uint8 = iota
	rkDownlink
)

// place wires d's event closures to this tile and, when d serves, schedules
// its activation, its deactivation when its window closes before the
// horizon, and its first slot at instant first.
func (s *shard) place(d *device, first time.Duration, serves bool) error {
	if s.macOn {
		d.ackTimeoutFn = func(at time.Duration) { s.ackTimeout(d, at) }
	}
	d.slotFn = func(now time.Duration) {
		if d.failed {
			return // churned device: the slot chain ends here
		}
		s.tick(d, now)
		s.scheduleTick(d, now+s.cfg.MsgInterval)
	}
	d.retryFn = func(later time.Duration) {
		d.retryScheduled = false
		s.tryUplink(d, later)
	}
	if !serves {
		return nil
	}
	start, end := d.node.Window()
	if _, err := s.es.At(start, func(time.Duration) { s.activate(d) }); err != nil {
		return err
	}
	if end < s.cfg.Duration {
		if _, err := s.es.At(end, func(time.Duration) { s.deactivate(d) }); err != nil {
			return err
		}
	}
	s.scheduleTick(d, first)
	return nil
}

func (s *shard) activate(d *device) {
	if !s.alive(d, s.es.Now()) {
		return // churned out before its service window opened
	}
	d.everActive = true
	s.activeList = append(s.activeList, d.id)
	s.ix.activate(d.id, s.es.Now(), s.motionFn)
}

func (s *shard) deactivate(d *device) {
	s.activeDead++
	if s.activeDead*2 > len(s.activeList) {
		// Keep every device alive at the earliest instant still asked
		// about (the window start: phase C of this window still overhears
		// from there on) whose service window is still open there, not
		// just those instantaneously active: models may flicker within
		// their window (duty-cycled sensors), and a node evicted here would
		// never re-enter the list.
		t := s.coord.windowStart
		kept := s.activeList[:0]
		for _, id := range s.activeList {
			z := s.devices[id]
			_, end := z.node.Window()
			if s.alive(z, t) && t < end {
				kept = append(kept, id)
			}
		}
		s.activeList = kept
		s.activeDead = 0
	}
}

// scheduleTick arms the device's next Δt slot (the prebuilt slotFn: tick,
// then re-arm).
func (s *shard) scheduleTick(d *device, at time.Duration) {
	_, end := d.node.Window()
	if at >= s.cfg.Duration || at >= end {
		return
	}
	// Scheduling in the past cannot happen from a monotone tick chain; the
	// error is ignored defensively.
	_, _ = s.es.At(at, d.slotFn)
}

// tick is one device slot: observe the estimator, account listening energy,
// generate a message, and attempt an uplink (Sec. VII-A4/5).
//
//mlorass:hotpath
func (s *shard) tick(d *device, now time.Duration) {
	if d.failed || !d.node.Active(now) {
		return
	}

	// Estimator observation (Eqs. 3–4). t∆ is the residual duty-cycle
	// wait before this device may broadcast.
	tDelta := d.duty.NextFree() - now
	if tDelta < 0 {
		tDelta = 0
	}
	d.est.Observe(now, d.acked, s.contactCapacityPPS, tDelta)
	d.acked = false

	// Listening energy for the interval just starting, and the listen
	// gate used for overhearing during it (Eq. 11 for Queue-based
	// Class-A; Modified Class-C always listens).
	switch s.cfg.Class {
	case lorawan.ClassQueueA:
		d.listenFraction = lorawan.QueueAListenFraction(
			d.est.Phi(), s.gwCfg.PhiMax, d.queue.Len(), s.cfg.QueueMax)
	default:
		d.listenFraction = 1
	}
	d.energy.RecordRx(time.Duration(d.listenFraction * float64(s.cfg.MsgInterval)))

	// Generate this slot's message; a full queue drops it (counted). Its
	// ID is intrinsic to the device, not to any global event order.
	d.msgSeq++
	id := intrinsicMsgID(d.id, d.msgSeq)
	s.rec.AddGenerated()
	traced := s.tracer.Sampled(id)
	if traced {
		s.trace(telemetry.Event{
			T: now, Kind: telemetry.KindGenerate, Msg: id,
			Dev: d.id, Peer: -1, Gw: -1,
		})
	}
	if !d.queue.Push(lorawan.Message{
		ID:      id,
		Created: now,
		Via:     -1,
	}) {
		s.rec.AddQueueDrops(1)
		if traced {
			s.trace(telemetry.Event{
				T: now, Kind: telemetry.KindDrop, Msg: id,
				Dev: d.id, Peer: -1, Gw: -1,
			})
		}
	}
	// A new packet resets the retransmission counter (Sec. VII-A5).
	d.attempts = 0

	s.tryUplink(d, now)
}

// tryUplink attempts the device's slot transmission, deferring to the duty
// governor when the channel budget is exhausted. A fresh forwarding decision
// redirects the frame to the chosen neighbour; otherwise it is a
// sink-addressed uplink. Either way every frame is a broadcast that gateways
// and neighbours may receive.
//
//mlorass:hotpath
func (s *shard) tryUplink(d *device, now time.Duration) {
	if d.busy || d.awaitingAck || d.failed || d.queue.Len() == 0 || !d.node.Active(now) {
		return
	}
	if !d.duty.CanSend(now) {
		if !d.retryScheduled {
			d.retryScheduled = s.schedule(d.duty.NextFree(), d.retryFn)
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

// stillInRange reports whether the handover target is alive and within the
// device-to-device range.
func (s *shard) stillInRange(d *device, dest int, now time.Duration) bool {
	target := s.devices[dest]
	if !s.alive(target, now) {
		return false
	}
	dpos, ok1 := d.pos(now)
	// The target may live on another tile: read its stateless trajectory.
	tpos, ok2 := target.node.PositionAt(now)
	return ok1 && ok2 && dpos.Dist(tpos) <= s.cfg.D2DRangeM
}

// transmit puts one frame on the air. dest is -1 for a sink-addressed uplink
// or a device index for a device-to-device handover; count bounds the bundle.
// The bundle lives in the device's reusable scratch (one transmission in
// flight per device), and the frame, its radio handle and its destination
// are parked on the device until the transmission resolves.
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
		// The no-send-back rule: never return a message to the device
		// it came from.
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
	phy := s.uplinkPHY(d)
	airtime := phy.Airtime(frame.PayloadBytes())
	tx := s.medium.Begin(d.id, pos, d.txPowDBm, now, now+airtime, nil)

	d.busy = true
	d.duty.Record(now, airtime)
	d.energy.RecordTx(airtime)
	d.framesSent++
	d.msgSends += uint64(len(bundle))
	s.rec.AddFrame()
	s.rec.AddUplinkSF(int(phy.SF))

	d.pendTx = tx
	d.pendFrame = frame
	d.pendDest = dest
	s.began(d, tx, rkUplink)
}

// scheduleNextAttempt arms the device's next transmission at the earliest
// duty-free instant if it still holds data.
func (s *shard) scheduleNextAttempt(d *device) {
	if d.retryScheduled || d.queue.Len() == 0 {
		return
	}
	d.retryScheduled = s.schedule(d.duty.NextFree(), d.retryFn)
}

// receiveAtGateways attempts reception of the frame seq on tx at every
// available gateway inside the gateway range, nearest first, and returns the
// first that decodes it (-1 if none) along with the RSSI it observed (the MAC
// layer's SNR input). The candidate scratch is reused across calls and
// ordered by insertion sort — the total (dist, idx) key makes the order
// identical to any comparison sort, and in-range gateway counts are single
// digits.
//
//mlorass:hotpath
func (s *shard) receiveAtGateways(tx *radio.Transmission, seq uint32, now time.Duration) (int, radio.DBm) {
	cands := s.gwCands[:0]
	maxR := s.cfg.GatewayRangeM
	for i, gp := range s.gws {
		// Bounding-box pre-filter: |dx| > R (or |dy| > R) implies the
		// Euclidean distance exceeds R, skipping the hypot.
		if dx := tx.Pos.X - gp.X; dx > maxR || dx < -maxR {
			continue
		}
		if dy := tx.Pos.Y - gp.Y; dy > maxR || dy < -maxR {
			continue
		}
		// Availability is asked of in-range gateways only: a handful per
		// frame instead of the whole deployment.
		if d := tx.Pos.Dist(gp); d <= maxR && s.gatewayUp(i, now) {
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
		if rec := s.receive(tx, s.gws[c.idx], fk, c.idx); rec.OK() {
			return c.idx, rec.RSSIDBm
		}
	}
	return -1, 0
}

// decoded completes an uplink gateway gw decoded, device-side: the delivery
// counts and traces, and without the MAC the gateway ACK is instant and
// always succeeds (Sec. VII-A5); with it, the network server reacts (ADR,
// downlink ack) and confirmed traffic holds the bundle until acked. The
// coordinator hands the bundle to the ledger.
func (s *shard) decoded(d *device, frame *lorawan.Frame, gw int, rssi radio.DBm, now time.Duration) {
	s.rec.AddUplinkDelivery()
	if s.tracer != nil {
		for _, m := range frame.Messages {
			if s.tracer.Sampled(m.ID) {
				s.trace(telemetry.Event{
					T: now, Kind: telemetry.KindUplink, Msg: m.ID,
					Dev: d.id, Peer: -1, Gw: gw, Hops: m.Hops + 1,
				})
			}
		}
	}
	if s.macOn {
		s.macUplink(d, gw, rssi, now)
		return
	}
	// Keep draining the backlog at every duty opportunity while the contact
	// lasts — the duty cycle is the only regulatory send-rate limit; relays
	// carrying other devices' data must not idle until their next
	// generation slot.
	s.uplinkAcked(d)
}

// requeue returns a failed uplink's bundle to the queue head, in FIFO order,
// and retransmits after the duty-cycle timer, up to the retry budget.
func (s *shard) requeue(d *device, msgs []lorawan.Message) {
	s.rec.AddQueueDrops(d.queue.PushFront(msgs))
	d.attempts++
	if !s.retry.Exhausted(d.attempts) {
		s.scheduleNextAttempt(d)
	}
}

// handoverSent counts a handover attempt — one per decision, win or lose —
// of the frame on the air from pos to device dest, and reports whether the
// target decodes it: it must be alive, off the air, listening and in range at
// the frame's end. A miss is a collision at the target, the target
// transmitting, or the pair separating during the airtime; the
// always-listening Class-C sender never hears the data re-advertised, so it
// keeps the bundle and retries later — handovers are effectively reliable,
// matching the paper's application-layer transfer model.
func (s *shard) handoverSent(d *device, pos geo.Point, frame *lorawan.Frame, dest int, at time.Duration) bool {
	d.fwdTarget = -1
	s.rec.AddHandoverAttempt()
	target := s.devices[dest]
	tpos, ok := target.node.PositionAt(at)
	if ok && s.receptive(target, at) && s.listening(target, frameKey(frame.From, frame.Seq)) &&
		pos.Dist(tpos) <= s.cfg.D2DRangeM {
		return true
	}
	s.rec.AddHandoverMissedMsgs(len(frame.Messages))
	return false
}

// handover completes a received device-to-device transfer: the target
// absorbs the messages (hop count incremented, provenance recorded) and bans
// sending them back.
func (s *shard) handover(target *device, from int, msgs []lorawan.Message, at time.Duration) {
	s.rec.AddHandoverSuccess()
	s.rec.AddRelayHops(len(msgs))
	for _, m := range msgs {
		m.Hops++
		m.Via = from
		traced := s.tracer.Sampled(m.ID)
		if traced {
			s.trace(telemetry.Event{
				T: at, Kind: telemetry.KindRelay, Msg: m.ID,
				Dev: from, Peer: target.id, Gw: -1, Hops: m.Hops,
			})
		}
		if !target.queue.Push(m) { // full queue counts a drop
			s.rec.AddQueueDrops(1)
			if traced {
				s.trace(telemetry.Event{
					T: at, Kind: telemetry.KindDrop, Msg: m.ID,
					Dev: target.id, Peer: -1, Gw: -1, Hops: m.Hops,
				})
			}
		}
	}
	target.banSendBack(from)
}

// listening reports whether device z's receiver is open for frame fk:
// Modified Class-C always listens; Queue-based Class-A listens for the γ
// fraction of the slot, a Bernoulli draw per reception opportunity.
//
//mlorass:hotpath
func (s *shard) listening(z *device, fk uint64) bool {
	if s.cfg.Class != lorawan.ClassQueueA {
		return true
	}
	if z.listenFraction >= 1 {
		return true
	}
	if z.listenFraction <= 0 {
		return false
	}
	src := rng.Seeded(rng.Key2(s.coord.listenSeed, fk, uint64(z.id+1)))
	return src.Float64() < z.listenFraction
}

// overhear lets every in-range listening neighbour this tile owns receive
// the broadcast frame, sent from pos at power pow, and run the forwarding
// policy against the advertised RCA-ETX and queue length (Sec. IV-A). skip is
// the device the frame was addressed to, which never overhears it. A
// neighbour pays for its link (a position read, the RSSI and RCA-ETX(x, y))
// only when the policy wants to forward without it.
//
//mlorass:hotpath
func (s *shard) overhear(frame lorawan.Frame, pos geo.Point, pow radio.DBm, skip int, now time.Duration) {
	maxR := s.cfg.D2DRangeM
	if s.ix.stale(now) {
		s.ix.refresh(now, s.activeList, s.motionFn)
	}
	fk := frameKey(frame.From, frame.Seq)
	// Candidates all hold data: the index drops empty queues, and only this
	// tile writes its devices' queues.
	for _, h := range s.ix.candidates(now, pos, maxR) {
		zi := int(h.id)
		if zi == frame.From || zi == skip {
			continue
		}
		z := s.devices[zi]
		if !s.receptive(z, now) {
			continue
		}
		dist := -1.0 // a certified hit reads its distance only for a link
		if h.inRange {
			if inRangeHook != nil {
				inRangeHook(z, pos, now, maxR)
			}
		} else if dist = z.distWithin(pos, now, maxR); dist < 0 {
			continue
		}
		if !s.listening(z, fk) {
			continue
		}
		if z.bannedSendBack(frame.From) {
			continue
		}
		local := routing.LocalState{
			RCAETX:   z.est.RCAETX(),
			Phi:      z.est.Phi(),
			QueueLen: z.queue.Len(),
		}
		if !s.policy.Wants(local, frame, s.gwCfg.PhiMin, s.gwCfg.PhiMax) {
			continue
		}
		if dist < 0 {
			zpos, _ := z.pos(now)
			dist = pos.Dist(zpos)
		}
		// One RSSI measurement per overheard broadcast feeds Eq. (5), at
		// the sender's (possibly ADR-lowered) transmit power, its shadowing
		// keyed on (frame, receiver).
		src := rng.Seeded(rng.Key2(s.coord.d2dSeed, fk, uint64(z.id+1)))
		rssi := s.loss.RSSI(pow, radio.Meters(dist), &src)
		linkETX := s.link.RCAETX(rssi)
		dec := s.policy.OnOverhear(local, frame, linkETX, s.gwCfg.PhiMin, s.gwCfg.PhiMax)
		if !dec.Forward {
			continue
		}
		// Record the decision; the handover rides z's next regular
		// transmission opportunity — its upcoming slot tick or an
		// already-scheduled duty-cycle retry (one pending decision at a
		// time, freshest wins). Riding existing opportunities keeps the
		// channel load of the forwarding schemes at the baseline's level,
		// as in the paper's ≤2.2x message-overhead budget.
		z.fwdTarget = frame.From
		z.fwdCount = dec.Count
		z.fwdExpiry = now + s.cfg.MsgInterval
	}
}

// frameKey packs a transmission's intrinsic identity (sender, sequence)
// into one key word. Gateway downlink senders are negative (-1-gw), which
// maps to a distinct high word.
//
//mlorass:hotpath
func frameKey(from int, seq uint32) uint64 {
	return uint64(uint32(int32(from+1)))<<32 | uint64(seq)
}
