package experiment

import (
	"time"

	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
	"mlorass/internal/rng"
	"mlorass/internal/telemetry"
)

// sim is the serial engine: one kernel, with one event queue and one radio
// medium, over the whole world.
type sim struct {
	kernel

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
	if cfg.Shards > 0 {
		// The windowed sharded engine: bit-identical results for every
		// shard count and tile layout, deliberately distinct from the
		// serial engine below (see sim_sharded.go).
		res, _, err := runSharded(cfg, nil, cities)
		return res, err
	}
	s, err := newSim(cfg, cities)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// newSim builds the serial engine's world for a normalized, validated cfg
// and schedules every device and disruption event on its kernel.
func newSim(cfg Config, cities *citySet) (*sim, error) {
	w, err := newWorld(cfg, cities)
	if err != nil {
		return nil, err
	}
	s := &sim{d2dShadow: rng.New(cfg.Seed ^ 0x0d2d)}
	if err := s.build(&w, s, w.rec); err != nil {
		return nil, err
	}
	if s.rec != nil || s.tracer != nil {
		// The server ledger streams delays into the recorder and
		// deliver/dedup records into the trace as they happen.
		s.server.SetObserver(s)
	}
	err = s.buildDevices(func(d *device, first time.Duration, serves bool) error {
		d.resolveFn = func(end time.Duration) { s.resolve(d, end) }
		return s.place(d, first, serves)
	})
	if err != nil {
		return nil, err
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
	return s.scheduleChurn(plan, func(int) *kernel { return &s.kernel })
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

	gw, rssi := s.receiveAtGateways(tx, frame.Seq, now)
	switch {
	case gw >= 0:
		s.decoded(d, &frame, gw, rssi, now)
		fresh := s.server.Ingest(now, gw, frame.Messages)
		s.rec.AddServerFresh(fresh)
		s.throughput.Record(now, fresh)
	case dest >= 0:
		if s.handoverSent(d, tx.Pos, &frame, dest, now) {
			s.handover(s.devices[dest], d.id, frame.Messages, now)
		} else {
			d.queue.PushFront(frame.Messages)
		}
		s.scheduleNextAttempt(d)
	default:
		s.requeue(d, frame.Messages)
	}
	if s.overhearOn {
		s.overhear(frame, tx.Pos, d.txPowDBm, dest, now)
	}
}

// Delivered implements netserver.Observer: the ledger's first-copy
// acceptance streams the end-to-end delay into the recorder and a deliver
// record into the trace.
func (s *sim) Delivered(d netserver.Delivery) {
	s.rec.ObserveDelay(d.Delay().Seconds())
	if s.tracer.Sampled(d.MessageID) {
		s.trace(telemetry.Event{
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
		s.trace(telemetry.Event{
			T: now, Kind: telemetry.KindDuplicate, Msg: m.ID,
			Dev: -1, Peer: -1, Gw: gw, Hops: m.Hops + 1,
		})
	}
}

// The serial engine's side of the engine seam: a global message counter,
// immediate trace emission, live flags, kernel-event resolutions and
// sequential draw streams.

func (s *sim) msgID(*device) uint64 {
	s.msgCounter++
	return s.msgCounter
}

// trace stamps the run label onto an event and forwards it to the tracer.
func (s *sim) trace(e telemetry.Event) {
	e.Run = s.traceRun
	s.tracer.Emit(e)
	s.rec.AddTraceEvent()
}

func (s *sim) schedule(at time.Duration, fn eventsim.Event) bool {
	_, err := s.es.At(at, fn)
	return err == nil
}

func (s *sim) alive(d *device, _ time.Duration) bool { return !d.failed }

//mlorass:hotpath
func (s *sim) receptive(d *device, _ time.Duration) bool { return !d.busy && !d.failed }

func (s *sim) peerPos(d *device, at time.Duration) (geo.Point, bool) { return d.pos(at) }

func (s *sim) liveFrom() time.Duration { return s.es.Now() }

//mlorass:hotpath
func (s *sim) gatewayUp(gw int, _ time.Duration) bool { return s.gwUp == nil || s.gwUp[gw] }

// began schedules the transmission's resolution event at its end.
func (s *sim) began(d *device, tx *radio.Transmission, kind uint8) {
	if kind == rkDownlink {
		if _, err := s.es.At(tx.End, d.dlFn); err != nil {
			d.dlTx = nil // unreachable for future instants
		}
		return
	}
	s.rec.ObserveAirtime((tx.End - tx.Start).Seconds())
	if _, err := s.es.At(tx.End, d.resolveFn); err != nil {
		// Unreachable for positive airtime; restore queue state.
		d.busy = false
		d.pendTx = nil
		d.queue.PushFront(d.pendFrame.Messages)
	}
}

//mlorass:hotpath
func (s *sim) receive(tx *radio.Transmission, pos geo.Point, _ uint64, _ int) radio.Reception {
	return s.medium.Receive(tx, pos)
}

//mlorass:hotpath
func (s *sim) listenDraw(z *device, _ uint64) float64 { return z.rnd.Float64() }

// skipShadow advances the shadowing stream by the draw a declined
// neighbour's link would have taken.
//
//mlorass:hotpath
func (s *sim) skipShadow() { s.loss.SkipShadow(s.d2dShadow) }

//mlorass:hotpath
func (s *sim) overheardRSSI(_ *device, _ uint64, pow radio.DBm, dist float64) radio.DBm {
	return s.loss.RSSI(pow, radio.Meters(dist), s.d2dShadow)
}

func (s *sim) mac(op macOp) {
	if plan, ok := s.applyMAC(&op); ok {
		s.sendDownlink(s.devices[op.dev], &plan)
	}
}
