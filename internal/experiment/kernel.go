package experiment

import (
	"time"

	"mlorass/internal/disruption"
	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/mobility"
	"mlorass/internal/radio"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
)

// This file is the device protocol both engines run: the slot tick with the
// RCA-ETX estimator and the listen gates (Sec. VII-A4/5), transmission and
// retries, the gateway scan, handovers, and overhearing with the forwarding
// policy (Sec. IV-A). A kernel runs it on the devices it owns; what the
// engines do differently sits behind the engine seam.

// Resolution kinds, ordered: uplinks resolve before downlinks at equal
// instants.
const (
	rkUplink uint8 = iota
	rkDownlink
)

// engine is what an engine decides for the device protocol. It is set once,
// when the kernel is built. The serial engine numbers messages from a global
// counter, emits trace events at once, tests a device's live flags, resolves
// a transmission on its own kernel event and draws from sequential streams.
// A tile numbers messages per device, buffers its trace, reads liveness from
// the disruption plan and flight intervals, resolves in phase B and keys
// every draw on intrinsic identities.
type engine interface {
	// msgID numbers d's next generated message.
	msgID(d *device) uint64
	// trace records one sampled event; callers have checked Sampled.
	trace(e telemetry.Event)
	// schedule arms a retry fn at instant at, reporting success.
	schedule(at time.Duration, fn eventsim.Event) bool
	// alive reports whether d has not churned out by instant at; receptive
	// whether it is also off the air there.
	alive(d *device, at time.Duration) bool
	receptive(d *device, at time.Duration) bool
	// peerPos reads the position of a device this kernel may not own.
	peerPos(d *device, at time.Duration) (geo.Point, bool)
	// liveFrom is the earliest instant whose liveness the kernel may still
	// ask about.
	liveFrom() time.Duration
	// gatewayUp reports whether gateway gw is outside its outages at at.
	gatewayUp(gw int, at time.Duration) bool
	// began takes a transmission just put on the medium, d's uplink
	// (rkUplink) or a downlink to d (rkDownlink), and arranges its
	// resolution at tx.End.
	began(d *device, tx *radio.Transmission, kind uint8)
	// receive resolves tx's reception at pos by receiver rx, a gateway or a
	// device; fk is tx's frameKey.
	receive(tx *radio.Transmission, pos geo.Point, fk uint64, rx int) radio.Reception
	// listenDraw is device z's uniform draw for its listen gate on frame fk.
	listenDraw(z *device, fk uint64) float64
	// skipShadow accounts for a neighbour the forwarding policy declined;
	// overheardRSSI is what neighbour z measures of frame fk sent at power
	// pow from dist metres.
	skipShadow()
	overheardRSSI(z *device, fk uint64, pow radio.DBm, dist float64) radio.DBm
	// mac hands one operation to the network server's MAC plane.
	mac(op macOp)
}

// kernel is one event kernel's share of a run, the serial engine's only one
// or one tile's: its medium view, spatial index, counters and recorder, and
// the device protocol over the devices it owns.
type kernel struct {
	*world
	counters
	eng    engine
	es     *eventsim.Simulator
	medium *radio.Medium
	// rec is the kernel's recorder: the world's under the serial engine, a
	// tile's own under the tile engine.
	rec *telemetry.Recorder

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
}

// build makes the kernel over w for the engine eng, recording into rec.
func (k *kernel) build(w *world, eng engine, rec *telemetry.Recorder) error {
	medium, err := radio.NewMedium(w.mediumConfig())
	if err != nil {
		return err
	}
	*k = kernel{
		world: w, eng: eng, es: eventsim.New(), medium: medium, rec: rec, ix: w.newIndex(),
		motionFn: func(id int, now, mid time.Duration) (mobility.Motion, bool) {
			return indexMotion(w.devices[id], now, mid)
		},
	}
	// The kernel probe is wired only while tracing (its per-event interface
	// call is measurable, the plain recorders are not), and only with a live
	// recorder: a typed-nil probe would make the kernel pay the call for a
	// guaranteed no-op.
	if w.tracer != nil && rec != nil {
		k.es.SetProbe(rec)
	}
	return nil
}

// place wires d's event closures to this kernel and, when d serves,
// schedules its activation, its deactivation when its window closes before
// the horizon, and its first slot at instant first. The engine sets
// d.resolveFn.
func (k *kernel) place(d *device, first time.Duration, serves bool) error {
	if k.macOn {
		d.dlFn = func(end time.Duration) { k.resolveDownlink(d, end) }
		d.ackTimeoutFn = func(at time.Duration) { k.ackTimeout(d, at) }
	}
	d.slotFn = func(now time.Duration) {
		if d.failed {
			return // churned device: the slot chain ends here
		}
		k.tick(d, now)
		k.scheduleTick(d, now+k.cfg.MsgInterval)
	}
	d.retryFn = func(later time.Duration) {
		d.retryScheduled = false
		k.tryUplink(d, later)
	}
	if !serves {
		return nil
	}
	start, end := d.node.Window()
	if _, err := k.es.At(start, func(time.Duration) { k.activate(d) }); err != nil {
		return err
	}
	if end < k.cfg.Duration {
		if _, err := k.es.At(end, func(time.Duration) { k.deactivate(d) }); err != nil {
			return err
		}
	}
	k.scheduleTick(d, first)
	return nil
}

// scheduleChurn counts the plan's device failures before the horizon and
// schedules each built device's on the kernel owning it.
func (w *world) scheduleChurn(plan *disruption.Plan, owner func(id int) *kernel) error {
	for di, failAt := range plan.DeviceFailAt {
		if failAt < 0 || failAt >= w.cfg.Duration {
			continue
		}
		w.deviceFailures++
		d := w.devices[di]
		if d == nil {
			continue // dormant: fails before it could ever serve
		}
		k := owner(di)
		if _, err := k.es.At(failAt, func(time.Duration) {
			d.failed = true
			k.deactivate(d)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (k *kernel) activate(d *device) {
	if !k.eng.alive(d, k.es.Now()) {
		return // churned out before its service window opened
	}
	d.everActive = true
	k.activeList = append(k.activeList, d.id)
	k.ix.activate(d.id, k.es.Now(), k.motionFn)
}

func (k *kernel) deactivate(d *device) {
	k.activeDead++
	if k.activeDead*2 > len(k.activeList) {
		// Keep every device alive at the earliest instant still asked
		// about whose service window is still open there, not just those
		// instantaneously active: models may flicker within their window
		// (duty-cycled sensors), and a node evicted here would never
		// re-enter the list.
		t := k.eng.liveFrom()
		kept := k.activeList[:0]
		for _, id := range k.activeList {
			z := k.devices[id]
			_, end := z.node.Window()
			if k.eng.alive(z, t) && t < end {
				kept = append(kept, id)
			}
		}
		k.activeList = kept
		k.activeDead = 0
	}
}

// scheduleTick arms the device's next Δt slot (the prebuilt slotFn: tick,
// then re-arm).
func (k *kernel) scheduleTick(d *device, at time.Duration) {
	_, end := d.node.Window()
	if at >= k.cfg.Duration || at >= end {
		return
	}
	// Scheduling in the past cannot happen from a monotone tick chain; the
	// error is ignored defensively.
	_, _ = k.es.At(at, d.slotFn)
}

// tick is one device slot: observe the estimator, account listening energy,
// generate a message, and attempt an uplink (Sec. VII-A4/5).
//
//mlorass:hotpath
func (k *kernel) tick(d *device, now time.Duration) {
	if d.failed || !d.node.Active(now) {
		return
	}

	// Estimator observation (Eqs. 3–4). t∆ is the residual duty-cycle
	// wait before this device may broadcast.
	tDelta := d.duty.NextFree() - now
	if tDelta < 0 {
		tDelta = 0
	}
	d.est.Observe(now, d.acked, k.contactCapacityPPS, tDelta)
	d.acked = false

	// Listening energy for the interval just starting, and the listen
	// gate used for overhearing during it (Eq. 11 for Queue-based
	// Class-A; Modified Class-C always listens).
	switch k.cfg.Class {
	case lorawan.ClassQueueA:
		d.listenFraction = lorawan.QueueAListenFraction(
			d.est.Phi(), k.gwCfg.PhiMax, d.queue.Len(), k.cfg.QueueMax)
	default:
		d.listenFraction = 1
	}
	d.energy.RecordRx(time.Duration(d.listenFraction * float64(k.cfg.MsgInterval)))

	// Generate this slot's message; a full queue drops it (counted).
	id := k.eng.msgID(d)
	k.generated++
	k.rec.AddGenerated()
	traced := k.tracer.Sampled(id)
	if traced {
		k.eng.trace(telemetry.Event{
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
		k.rec.AddQueueDrop()
		if traced {
			k.eng.trace(telemetry.Event{
				T: now, Kind: telemetry.KindDrop, Msg: id,
				Dev: d.id, Peer: -1, Gw: -1,
			})
		}
	}
	// A new packet resets the retransmission counter (Sec. VII-A5).
	d.attempts = 0

	k.tryUplink(d, now)
}

// tryUplink attempts the device's slot transmission, deferring to the duty
// governor when the channel budget is exhausted. A fresh forwarding decision
// redirects the frame to the chosen neighbour; otherwise it is a
// sink-addressed uplink. Either way every frame is a broadcast that gateways
// and neighbours may receive.
//
//mlorass:hotpath
func (k *kernel) tryUplink(d *device, now time.Duration) {
	if d.busy || d.awaitingAck || d.failed || d.queue.Len() == 0 || !d.node.Active(now) {
		return
	}
	if !d.duty.CanSend(now) {
		if !d.retryScheduled {
			d.retryScheduled = k.eng.schedule(d.duty.NextFree(), d.retryFn)
		}
		return
	}
	dest := -1
	count := lorawan.MaxBundle
	if d.fwdTarget >= 0 {
		if now < d.fwdExpiry && k.stillInRange(d, d.fwdTarget, now) {
			dest = d.fwdTarget
			if d.fwdCount < count {
				count = d.fwdCount
			}
		} else {
			d.fwdTarget = -1
		}
	}
	k.transmit(d, now, dest, count)
}

// stillInRange reports whether the handover target is alive and within the
// device-to-device range.
func (k *kernel) stillInRange(d *device, dest int, now time.Duration) bool {
	target := k.devices[dest]
	if !k.eng.alive(target, now) {
		return false
	}
	dpos, ok1 := d.pos(now)
	tpos, ok2 := k.eng.peerPos(target, now)
	return ok1 && ok2 && dpos.Dist(tpos) <= k.cfg.D2DRangeM
}

// transmit puts one frame on the air. dest is -1 for a sink-addressed uplink
// or a device index for a device-to-device handover; count bounds the bundle.
// The bundle lives in the device's reusable scratch (one transmission in
// flight per device), and the frame, its radio handle and its destination
// are parked on the device until the transmission resolves.
//
//mlorass:hotpath
func (k *kernel) transmit(d *device, now time.Duration, dest, count int) {
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
	phy := k.uplinkPHY(d)
	airtime := phy.Airtime(frame.PayloadBytes())
	tx := k.medium.Begin(d.id, pos, d.txPowDBm, now, now+airtime, nil)

	d.busy = true
	d.duty.Record(now, airtime)
	d.energy.RecordTx(airtime)
	d.framesSent++
	d.msgSends += uint64(len(bundle))
	k.rec.AddFrame()
	k.rec.AddUplinkSF(int(phy.SF))

	d.pendTx = tx
	d.pendFrame = frame
	d.pendDest = dest
	k.eng.began(d, tx, rkUplink)
}

// scheduleNextAttempt arms the device's next transmission at the earliest
// duty-free instant if it still holds data.
func (k *kernel) scheduleNextAttempt(d *device) {
	if d.retryScheduled || d.queue.Len() == 0 {
		return
	}
	d.retryScheduled = k.eng.schedule(d.duty.NextFree(), d.retryFn)
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
func (k *kernel) receiveAtGateways(tx *radio.Transmission, seq uint32, now time.Duration) (int, radio.DBm) {
	cands := k.gwCands[:0]
	maxR := k.cfg.GatewayRangeM
	for i, gp := range k.gws {
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
		if d := tx.Pos.Dist(gp); d <= maxR && k.eng.gatewayUp(i, now) {
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
	k.gwCands = cands[:0]
	fk := frameKey(tx.From, seq)
	for _, c := range cands {
		if rec := k.eng.receive(tx, k.gws[c.idx], fk, c.idx); rec.OK() {
			return c.idx, rec.RSSIDBm
		}
	}
	return -1, 0
}

// decoded completes an uplink gateway gw decoded, device-side: the delivery
// counts and traces, and without the MAC the gateway ACK is instant and
// always succeeds (Sec. VII-A5); with it, the network server reacts (ADR,
// downlink ack) and confirmed traffic holds the bundle until acked. The
// engine hands the bundle to the ledger.
func (k *kernel) decoded(d *device, frame *lorawan.Frame, gw int, rssi radio.DBm, now time.Duration) {
	k.rec.AddUplinkDelivery()
	if k.tracer != nil {
		for _, m := range frame.Messages {
			if k.tracer.Sampled(m.ID) {
				k.eng.trace(telemetry.Event{
					T: now, Kind: telemetry.KindUplink, Msg: m.ID,
					Dev: d.id, Peer: -1, Gw: gw, Hops: m.Hops + 1,
				})
			}
		}
	}
	if k.macOn {
		k.macUplink(d, gw, rssi, now)
		return
	}
	// Keep draining the backlog at every duty opportunity while the contact
	// lasts — the duty cycle is the only regulatory send-rate limit; relays
	// carrying other devices' data must not idle until their next
	// generation slot.
	k.uplinkAcked(d)
}

// requeue returns a failed uplink's bundle to the queue head, in FIFO order,
// and retransmits after the duty-cycle timer, up to the retry budget.
func (k *kernel) requeue(d *device, msgs []lorawan.Message) {
	d.queue.PushFront(msgs)
	d.attempts++
	if !k.retry.Exhausted(d.attempts) {
		k.scheduleNextAttempt(d)
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
func (k *kernel) handoverSent(d *device, pos geo.Point, frame *lorawan.Frame, dest int, at time.Duration) bool {
	d.fwdTarget = -1
	k.handoverAttempts++
	target := k.devices[dest]
	tpos, ok := k.eng.peerPos(target, at)
	if ok && k.eng.receptive(target, at) && k.listening(target, frameKey(frame.From, frame.Seq)) &&
		pos.Dist(tpos) <= k.cfg.D2DRangeM {
		return true
	}
	k.handoverLostMsgs += uint64(len(frame.Messages))
	return false
}

// handover completes a received device-to-device transfer: the target
// absorbs the messages (hop count incremented, provenance recorded) and bans
// sending them back.
func (k *kernel) handover(target *device, from int, msgs []lorawan.Message, at time.Duration) {
	k.handoverSuccesses++
	k.handoverMsgs += uint64(len(msgs))
	k.rec.AddRelayHops(len(msgs))
	for _, m := range msgs {
		m.Hops++
		m.Via = from
		traced := k.tracer.Sampled(m.ID)
		if traced {
			k.eng.trace(telemetry.Event{
				T: at, Kind: telemetry.KindRelay, Msg: m.ID,
				Dev: from, Peer: target.id, Gw: -1, Hops: m.Hops,
			})
		}
		if !target.queue.Push(m) { // full queue counts a drop
			k.rec.AddQueueDrop()
			if traced {
				k.eng.trace(telemetry.Event{
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
func (k *kernel) listening(z *device, fk uint64) bool {
	if k.cfg.Class != lorawan.ClassQueueA {
		return true
	}
	if z.listenFraction >= 1 {
		return true
	}
	if z.listenFraction <= 0 {
		return false
	}
	return k.eng.listenDraw(z, fk) < z.listenFraction
}

// overhear lets every in-range listening neighbour this kernel owns receive
// the broadcast frame, sent from pos at power pow, and run the forwarding
// policy against the advertised RCA-ETX and queue length (Sec. IV-A). skip is
// the device the frame was addressed to, which never overhears it. A
// neighbour pays for its link (a position read, the RSSI and RCA-ETX(x, y))
// only when the policy wants to forward without it.
//
//mlorass:hotpath
func (k *kernel) overhear(frame lorawan.Frame, pos geo.Point, pow radio.DBm, skip int, now time.Duration) {
	maxR := k.cfg.D2DRangeM
	if k.ix.stale(now) {
		k.ix.refresh(now, k.activeList, k.motionFn)
	}
	fk := frameKey(frame.From, frame.Seq)
	// Candidates all hold data: the index drops empty queues, and only this
	// kernel writes its devices' queues.
	for _, h := range k.ix.candidates(now, pos, maxR) {
		zi := int(h.id)
		if zi == frame.From || zi == skip {
			continue
		}
		z := k.devices[zi]
		if !k.eng.receptive(z, now) {
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
		if !k.listening(z, fk) {
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
		if !k.policy.Wants(local, frame, k.gwCfg.PhiMin, k.gwCfg.PhiMax) {
			k.eng.skipShadow()
			continue
		}
		if dist < 0 {
			zpos, _ := z.pos(now)
			dist = pos.Dist(zpos)
		}
		// One RSSI measurement per overheard broadcast feeds Eq. (5), at
		// the sender's (possibly ADR-lowered) transmit power.
		rssi := k.eng.overheardRSSI(z, fk, pow, dist)
		linkETX := k.link.RCAETX(rssi)
		dec := k.policy.OnOverhear(local, frame, linkETX, k.gwCfg.PhiMin, k.gwCfg.PhiMax)
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
		z.fwdExpiry = now + k.cfg.MsgInterval
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
