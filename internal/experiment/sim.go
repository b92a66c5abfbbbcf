package experiment

import (
	"time"

	"mlorass/internal/eventsim"
	"mlorass/internal/lorawan"
	"mlorass/internal/mobility"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
	"mlorass/internal/rng"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
)

// sim is the serial engine: one event kernel and one radio medium over the
// whole world.
type sim struct {
	world
	counters
	es     *eventsim.Simulator
	medium *radio.Medium

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

	// gwUp tracks per-gateway availability; nil when the disruption layer
	// is off (every gateway permanently up, the paper's setting).
	gwUp []bool

	msgCounter uint64

	// d2dShadow draws the shadowing for overheard-RSSI measurements
	// (Eq. 5 input). Device-to-device frames themselves are received
	// deterministically within range: the paper's FLoRa substrate has no
	// device-to-device PHY, so its handovers and overhearing operate
	// above the collision model, and only gateway uplinks contend.
	d2dShadow *rng.Source
}

// Run executes one scenario and returns its measurements.
func Run(cfg Config) (*Result, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 0 {
		// The windowed sharded engine: bit-identical results for every
		// shard count and tile layout, deliberately distinct from the
		// serial engine below (see sim_sharded.go).
		res, _, err := runSharded(cfg, nil)
		return res, err
	}
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// newSim builds the serial engine's world for a normalized, validated cfg
// and schedules every device and disruption event on its kernel.
func newSim(cfg Config) (*sim, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	medium, err := radio.NewMedium(w.mediumConfig())
	if err != nil {
		return nil, err
	}
	s := &sim{
		world:     w,
		es:        eventsim.New(),
		medium:    medium,
		ix:        w.newIndex(),
		d2dShadow: rng.New(cfg.Seed ^ 0x0d2d),
	}
	// The kernel probe is wired only while tracing (its per-event
	// interface call is measurable, the plain recorders are not), and only
	// with a live recorder: a typed-nil probe would make the kernel pay the
	// call for a guaranteed no-op.
	if s.tracer != nil && s.rec != nil {
		s.es.SetProbe(s.rec)
	}
	if s.rec != nil || s.tracer != nil {
		// The server ledger streams delays into the recorder and
		// deliver/dedup records into the trace as they happen.
		s.server.SetObserver(s)
	}

	err = s.buildDevices(func(d *device, first time.Duration, serves bool) error {
		if s.macOn {
			d.dlFn = func(end time.Duration) { s.resolveDownlink(d, end) }
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
		d.resolveFn = func(end time.Duration) { s.resolve(d, end) }
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
	})
	if err != nil {
		return nil, err
	}

	s.motionFn = func(id int, now, mid time.Duration) (mobility.Motion, bool) {
		return indexMotion(s.devices[id], now, mid)
	}

	if err := s.scheduleDisruption(); err != nil {
		return nil, err
	}
	return s, nil
}

// run executes the built world to the horizon and collects its result.
func (s *sim) run() (*Result, error) {
	if live := s.cfg.Telemetry.Live; live != nil && s.rec != nil {
		// Publish the recorder for live scraping until Run returns; by
		// then the kernel has quiesced, so the snapshot the detach folds
		// into the scraper's cumulative base equals Result.Telemetry.
		defer live.Attach(s.rec)()
	}
	if err := s.es.RunUntil(s.cfg.Duration); err != nil {
		return nil, err
	}
	return s.world.collect(&s.counters, s.medium.Stats(), s.rec.Snapshot()), nil
}

// scheduleDisruption compiles the disruption plan and places its outage,
// recovery, and churn events on the simulation timeline. A disabled config
// schedules nothing, leaving the run untouched.
func (s *sim) scheduleDisruption() error {
	if !s.cfg.Disruption.Enabled() {
		return nil
	}
	plan, err := compileDisruption(&s.cfg, len(s.gws), len(s.devices))
	if err != nil {
		return err
	}
	s.gwUp = make([]bool, len(s.gws))
	for i := range s.gwUp {
		s.gwUp[i] = true
	}
	for gi, windows := range plan.GatewayOutages {
		gi := gi
		for _, w := range windows {
			s.gatewayOutageWindows++
			if _, err := s.es.At(w.Start, func(time.Duration) { s.gwUp[gi] = false }); err != nil {
				return err
			}
			if w.End < s.cfg.Duration {
				if _, err := s.es.At(w.End, func(time.Duration) { s.gwUp[gi] = true }); err != nil {
					return err
				}
			}
		}
	}
	for di, failAt := range plan.DeviceFailAt {
		if failAt < 0 || failAt >= s.cfg.Duration {
			continue
		}
		s.deviceFailures++
		d := s.devices[di]
		if d == nil {
			continue // dormant: fails before it could ever serve
		}
		if _, err := s.es.At(failAt, func(time.Duration) {
			d.failed = true
			s.deactivate(d)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (s *sim) activate(d *device) {
	if d.failed {
		return // churned out before its service window opened
	}
	d.everActive = true
	s.activeList = append(s.activeList, d.id)
	s.ix.activate(d.id, s.es.Now(), s.motionFn)
}

func (s *sim) deactivate(d *device) {
	s.activeDead++
	if s.activeDead*2 > len(s.activeList) {
		now := s.es.Now()
		kept := s.activeList[:0]
		for _, id := range s.activeList {
			z := s.devices[id]
			// Keep every live device whose service window is still
			// open, not just those instantaneously active: models may
			// flicker within their window (duty-cycled sensors), and a
			// node evicted here would never re-enter the list.
			_, end := z.node.Window()
			if !z.failed && now < end {
				kept = append(kept, id)
			}
		}
		s.activeList = kept
		s.activeDead = 0
	}
}

// scheduleTick arms the device's next Δt slot (the prebuilt slotFn: tick,
// then re-arm).
func (s *sim) scheduleTick(d *device, at time.Duration) {
	_, end := d.node.Window()
	if at >= s.cfg.Duration || at >= end {
		return
	}
	if _, err := s.es.At(at, d.slotFn); err != nil {
		// Scheduling in the past cannot happen from a monotone tick
		// chain; ignore defensively.
		return
	}
}

// tick is one device slot: observe the estimator, account listening energy,
// generate a message, and attempt an uplink (Sec. VII-A4/5).
//
//mlorass:hotpath
func (s *sim) tick(d *device, now time.Duration) {
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

	// Generate this slot's message; a full queue drops it (counted).
	s.msgCounter++
	s.generated++
	s.rec.AddGenerated()
	traced := s.tracer.Sampled(s.msgCounter)
	if traced {
		s.emitTrace(telemetry.Event{
			T: now, Kind: telemetry.KindGenerate, Msg: s.msgCounter,
			Dev: d.id, Peer: -1, Gw: -1,
		})
	}
	if !d.queue.Push(lorawan.Message{
		ID:      s.msgCounter,
		Origin:  d.id,
		Created: now,
		Via:     -1,
	}) {
		s.rec.AddQueueDrop()
		if traced {
			s.emitTrace(telemetry.Event{
				T: now, Kind: telemetry.KindDrop, Msg: s.msgCounter,
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
func (s *sim) tryUplink(d *device, now time.Duration) {
	if d.busy || d.awaitingAck || d.failed || d.queue.Len() == 0 || !d.node.Active(now) {
		return
	}
	if !d.duty.CanSend(now) {
		if !d.retryScheduled {
			d.retryScheduled = true
			if _, err := s.es.At(d.duty.NextFree(), d.retryFn); err != nil {
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

// stillInRange reports whether the handover target is active and within the
// device-to-device range.
func (s *sim) stillInRange(d *device, dest int, now time.Duration) bool {
	target := s.devices[dest]
	if target.failed {
		return false
	}
	dpos, ok1 := d.pos(now)
	tpos, ok2 := target.pos(now)
	return ok1 && ok2 && dpos.Dist(tpos) <= s.cfg.D2DRangeM
}

// transmit puts one frame on the air. dest is -1 for a sink-addressed uplink
// or a device index for a device-to-device handover; count bounds the bundle.
// The bundle lives in the device's reusable scratch (one transmission in
// flight per device), and resolution state rides the device so the prebuilt
// resolveFn closure needs no per-transmission capture.
//
//mlorass:hotpath
func (s *sim) transmit(d *device, now time.Duration, dest, count int) {
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
	s.rec.ObserveAirtime(airtime.Seconds())
	s.rec.AddUplinkSF(int(phy.SF))

	d.pendTx = tx
	d.pendFrame = frame
	d.pendDest = dest
	if _, err := s.es.At(now+airtime, d.resolveFn); err != nil {
		// Unreachable for positive airtime; restore queue state.
		d.busy = false
		d.pendTx = nil
		d.queue.PushFront(bundle)
	}
}

// resolve completes a transmission: gateway reception and ACK, then
// device-to-device handover or retransmission bookkeeping, then neighbour
// overhearing and forwarding decisions. The frame, radio handle, and
// destination were parked on the device by transmit.
//
//mlorass:hotpath
func (s *sim) resolve(d *device, now time.Duration) {
	tx, frame, dest := d.pendTx, d.pendFrame, d.pendDest
	d.busy = false
	// The radio handle is dead after this event: the medium may recycle
	// it once the transmission has ended.
	d.pendTx = nil

	gw, rssi := s.receiveAtGateways(tx)
	switch {
	case gw >= 0:
		// Delivered. Without the MAC the gateway ACK is instant and
		// always succeeds (Sec. VII-A5) and the bundle leaves the
		// network; with it, the network server reacts (ADR, downlink
		// ack) and confirmed traffic holds the bundle until acked.
		s.rec.AddUplinkDelivery()
		if s.tracer != nil {
			for _, m := range frame.Messages {
				if s.tracer.Sampled(m.ID) {
					s.emitTrace(telemetry.Event{
						T: now, Kind: telemetry.KindUplink, Msg: m.ID,
						Dev: d.id, Peer: -1, Gw: gw, Hops: m.Hops + 1,
					})
				}
			}
		}
		fresh := s.server.Ingest(now, gw, frame.Messages)
		s.rec.AddServerFresh(fresh)
		s.throughput.Record(now, fresh)
		if s.macOn {
			s.macUplink(d, gw, rssi, now)
		} else {
			// Keep draining the backlog at every duty opportunity
			// while the contact lasts — the duty cycle is the only
			// regulatory send-rate limit; relays carrying other
			// devices' data must not idle until their next
			// generation slot.
			s.uplinkAcked(d)
		}
	case dest >= 0:
		// One handover attempt per decision, win or lose.
		d.fwdTarget = -1
		s.resolveHandover(d, tx, frame, dest, now)
		s.scheduleNextAttempt(d)
	default:
		// Failed uplink: requeue in FIFO order and retransmit after
		// the duty-cycle timer, up to the retry budget.
		d.queue.PushFront(frame.Messages)
		d.attempts++
		if !s.retry.Exhausted(d.attempts) {
			s.scheduleNextAttempt(d)
		}
	}

	s.overhear(d, tx, frame, dest, now)
}

// scheduleNextAttempt arms the device's next transmission at the earliest
// duty-free instant if it still holds data.
func (s *sim) scheduleNextAttempt(d *device) {
	if d.retryScheduled || d.queue.Len() == 0 {
		return
	}
	d.retryScheduled = true
	if _, err := s.es.At(d.duty.NextFree(), d.retryFn); err != nil {
		d.retryScheduled = false
	}
}

// receiveAtGateways attempts reception at every gateway inside the gateway
// range, nearest first, and returns the first that decodes the frame (-1 if
// none) along with the RSSI it observed (the MAC layer's SNR input). The
// candidate scratch is reused across calls and ordered by insertion sort —
// the total (dist, idx) key makes the order identical to any comparison
// sort, and in-range gateway counts are single digits.
//
//mlorass:hotpath
func (s *sim) receiveAtGateways(tx *radio.Transmission) (int, radio.DBm) {
	cands := s.gwCands[:0]
	maxR := s.cfg.GatewayRangeM
	for i, gp := range s.gws {
		if s.gwUp != nil && !s.gwUp[i] {
			continue // gateway inside an outage window
		}
		// Bounding-box pre-filter: |dx| > R (or |dy| > R) implies the
		// Euclidean distance exceeds R, skipping the hypot.
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
	for _, c := range cands {
		if rec := s.medium.Receive(tx, s.gws[c.idx]); rec.OK() {
			return c.idx, rec.RSSIDBm
		}
	}
	return -1, 0
}

// resolveHandover completes a device-to-device transfer: if the target
// decodes the frame it absorbs the messages (hop count incremented,
// provenance recorded); otherwise the sender requeues them.
func (s *sim) resolveHandover(d *device, tx *radio.Transmission, frame lorawan.Frame, dest int, now time.Duration) {
	s.handoverAttempts++
	target := s.devices[dest]
	tpos, ok := target.pos(now)
	received := ok && !target.busy && !target.failed && s.listening(target) &&
		tx.Pos.Dist(tpos) <= s.cfg.D2DRangeM
	if !received {
		// The handover missed: a collision at the target, the target
		// transmitting, or the pair separating during the airtime. The
		// always-listening Class-C sender never hears the data
		// re-advertised, so it keeps the bundle and retries later —
		// handovers are effectively reliable, matching the paper's
		// application-layer transfer model.
		s.handoverLostMsgs += uint64(len(frame.Messages))
		d.queue.PushFront(frame.Messages)
		return
	}
	s.handoverSuccesses++
	s.handoverMsgs += uint64(len(frame.Messages))
	s.rec.AddRelayHops(len(frame.Messages))
	for _, m := range frame.Messages {
		m.Hops++
		m.Via = d.id
		traced := s.tracer.Sampled(m.ID)
		if traced {
			s.emitTrace(telemetry.Event{
				T: now, Kind: telemetry.KindRelay, Msg: m.ID,
				Dev: d.id, Peer: dest, Gw: -1, Hops: m.Hops,
			})
		}
		if !target.queue.Push(m) { // full queue counts a drop
			s.rec.AddQueueDrop()
			if traced {
				s.emitTrace(telemetry.Event{
					T: now, Kind: telemetry.KindDrop, Msg: m.ID,
					Dev: dest, Peer: -1, Gw: -1, Hops: m.Hops,
				})
			}
		}
	}
	target.banSendBack(d.id)
}

// emitTrace stamps the run label onto an event and forwards it to the
// tracer. Callers have already checked Sampled for the message.
func (s *sim) emitTrace(e telemetry.Event) {
	e.Run = s.traceRun
	s.tracer.Emit(e)
	s.rec.AddTraceEvent()
}

// Delivered implements netserver.Observer: the ledger's first-copy
// acceptance streams the end-to-end delay into the recorder and a deliver
// record into the trace.
func (s *sim) Delivered(d netserver.Delivery) {
	s.rec.ObserveDelay(d.Delay().Seconds())
	if s.tracer.Sampled(d.MessageID) {
		s.emitTrace(telemetry.Event{
			T: d.Arrived, Kind: telemetry.KindDeliver, Msg: d.MessageID,
			Dev: -1, Peer: -1, Gw: d.Gateway, Hops: d.Hops,
			DelayS: d.Delay().Seconds(),
		})
	}
}

// Duplicate implements netserver.Observer: a deduplicated copy counts and,
// when sampled, traces.
func (s *sim) Duplicate(now time.Duration, gw int, m lorawan.Message) {
	s.rec.AddServerDuplicate()
	if s.tracer.Sampled(m.ID) {
		s.emitTrace(telemetry.Event{
			T: now, Kind: telemetry.KindDuplicate, Msg: m.ID,
			Dev: -1, Peer: -1, Gw: gw, Hops: m.Hops + 1,
		})
	}
}

// listening reports whether a device's receiver is open right now: Modified
// Class-C always listens; Queue-based Class-A listens for the γ fraction of
// the slot (modelled as a Bernoulli draw per reception opportunity).
func (s *sim) listening(d *device) bool {
	if s.cfg.Class != lorawan.ClassQueueA {
		return true
	}
	if d.listenFraction >= 1 {
		return true
	}
	if d.listenFraction <= 0 {
		return false
	}
	return d.rnd.Float64() < d.listenFraction
}

// overhear lets every in-range listening neighbour receive the broadcast and
// run the forwarding policy against the advertised RCA-ETX and queue length
// (Sec. IV-A).
//
//mlorass:hotpath
func (s *sim) overhear(sender *device, tx *radio.Transmission, frame lorawan.Frame, dest int, now time.Duration) {
	if s.policy.Scheme() == routing.SchemeNoRouting {
		return
	}
	maxR := s.cfg.D2DRangeM
	if s.ix.stale(now) {
		s.ix.refresh(now, s.activeList, s.motionFn)
	}
	for _, zi := range s.ix.candidates(now, tx.Pos, maxR) {
		if zi == sender.id || zi == dest {
			continue
		}
		z := s.devices[zi]
		if z.busy || z.failed || z.queue.Len() == 0 {
			continue
		}
		zpos, ok := z.pos(now)
		if !ok {
			continue
		}
		// Bounding-box pre-filter before the exact (hypot) distance.
		if dx := tx.Pos.X - zpos.X; dx > maxR || dx < -maxR {
			continue
		}
		if dy := tx.Pos.Y - zpos.Y; dy > maxR || dy < -maxR {
			continue
		}
		dist := tx.Pos.Dist(zpos)
		if dist > maxR {
			continue
		}
		if !s.listening(z) {
			continue
		}
		if z.bannedSendBack(sender.id) {
			continue
		}
		// One RSSI measurement per overheard broadcast feeds Eq. (5),
		// at the sender's (possibly ADR-lowered) transmit power.
		rssi := s.loss.RSSI(sender.txPowDBm, radio.Meters(dist), s.d2dShadow)
		linkETX := s.link.RCAETX(rssi)
		local := routing.LocalState{
			RCAETX:   z.est.RCAETX(),
			Phi:      z.est.Phi(),
			QueueLen: z.queue.Len(),
		}
		dec := s.policy.OnOverhear(local, frame, linkETX, s.gwCfg.PhiMin, s.gwCfg.PhiMax)
		if !dec.Forward {
			continue
		}
		// Record the decision; the handover rides z's next regular
		// transmission opportunity — its upcoming slot tick or an
		// already-scheduled duty-cycle retry (one pending decision at
		// a time, freshest wins). Riding existing opportunities keeps
		// the channel load of the forwarding schemes at the baseline's
		// level, as in the paper's ≤2.2x message-overhead budget.
		z.fwdTarget = sender.id
		z.fwdCount = dec.Count
		z.fwdExpiry = now + s.cfg.MsgInterval
	}
}
