package experiment

import (
	"fmt"
	"time"

	"mlorass/internal/core"
	"mlorass/internal/disruption"
	"mlorass/internal/eventsim"
	"mlorass/internal/geo"
	"mlorass/internal/gwplan"
	"mlorass/internal/lorawan"
	"mlorass/internal/mac"
	"mlorass/internal/mobility"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
	"mlorass/internal/rng"
	"mlorass/internal/routing"
	"mlorass/internal/stats"
	"mlorass/internal/telemetry"
)

// This file is the world a run simulates: the fleet, gateways, link model,
// network server and MAC plane, the device table, and the Result they
// collect into. The engine builds one world, and every tile it runs
// (kernel.go) reads it.

// world is one run's assembled scenario, built once by newWorld.
type world struct {
	cfg    Config
	fleet  *mobility.Fleet
	area   geo.Rect
	gws    []geo.Point
	policy routing.Policy
	// overhearOn is false under NoRouting, whose devices never act on an
	// overheard frame.
	overhearOn bool
	phy        radio.PHYParams
	link       core.LinkModel
	gwCfg      core.GatewayConfig
	retry      lorawan.RetryPolicy
	devices    []*device // by fleet id; nil when the window opens at or after the horizon
	// queues is the device queue slab, by fleet id: every device's queue
	// lives here, so the neighbour index tests a queue for data with one
	// load from a dense table.
	queues []lorawan.Queue

	// contactCapacityPPS is the service rate credited to a sink contact:
	// one full bundle per duty-cycled transmission opportunity.
	contactCapacityPPS float64
	// loss is the path-loss model of the radio medium and of overheard
	// device-to-device RSSI measurements.
	loss radio.PathLoss
	// idxSpeed is the spatial index's drift bound: the fleet's top speed,
	// floored at the historical 11 m/s bus bound so legacy scenarios index
	// identically.
	idxSpeed float64

	server     *netserver.Server
	throughput *stats.TimeSeries

	// plan is the compiled disruption schedule (nil when the disruption
	// layer is off): gateway availability and device liveness are looked
	// up in it by instant.
	plan *disruption.Plan

	// Disruption diagnostics.
	gatewayOutageWindows int
	deviceFailures       int

	// rec is the run's streaming metric recorder. tracer samples
	// per-packet events (nil when tracing is off); traceRun labels its
	// records.
	rec      *telemetry.Recorder
	tracer   *telemetry.Tracer
	traceRun string

	// MAC subsystem (all nil/zero when cfg.MAC is zero-valued — the
	// paper's uplink-only model, byte-identical to the pre-MAC simulator).
	macOn     bool
	confirmed bool
	// phyByDR holds the PHY parameters of every ADR data rate; dlAirTbl
	// caches downlink airtimes per (data rate, with-ADR-command) pair.
	phyByDR    [lorawan.NumDataRates]radio.PHYParams
	dlAirTbl   [lorawan.NumDataRates][2]time.Duration
	noiseFloor radio.DBm
	gwTxPowDBm radio.DBm
}

// newWorld builds the world for a normalized, validated cfg, taking a
// generated city from cities (nil generates it). Devices are built
// separately (buildDevices), once the engine's tiles exist.
func newWorld(cfg Config, cities *citySet) (world, error) {
	fleet, ds, err := buildFleet(&cfg, cities)
	if err != nil {
		return world{}, err
	}
	w := world{
		cfg: cfg, fleet: fleet, area: cfg.area(), retry: lorawan.DefaultRetryPolicy(),
		queues: make([]lorawan.Queue, fleet.Len()),
	}
	if ds != nil {
		w.area = ds.Area
	}
	if cfg.GatewayStrategy == gwplan.RouteAware {
		w.gws, err = gwplan.PlaceRouteAware(ds, cfg.NumGateways, cfg.GatewayRangeM)
	} else {
		w.gws, err = gwplan.Place(cfg.GatewayStrategy, w.area, cfg.NumGateways, cfg.Seed^0x9e37)
	}
	if err != nil {
		return world{}, err
	}
	if w.policy, err = routing.New(cfg.Scheme); err != nil {
		return world{}, err
	}
	w.overhearOn = cfg.Scheme != routing.SchemeNoRouting

	w.phy = radio.DefaultPHY(cfg.SF)
	fullFrame := lorawan.Frame{Messages: make([]lorawan.Message, lorawan.MaxBundle)}
	fullAirtime := w.phy.Airtime(fullFrame.PayloadBytes())
	// One bundled frame per duty-cycled opportunity: the best service
	// rate any contact can offer.
	cmaxPPS := cfg.DutyCycle / fullAirtime.Seconds()
	w.contactCapacityPPS = cmaxPPS

	w.loss = radio.DefaultPathLoss()
	w.loss.ShadowSigmaDB = radio.DB(cfg.ShadowSigmaDB)

	w.gwCfg = core.GatewayConfig{
		Alpha:           cfg.Alpha,
		Delta:           cfg.MsgInterval,
		DefaultCapacity: cmaxPPS,
		PhiMin:          1e-5,
		PhiMax:          cmaxPPS,
	}
	if err := w.gwCfg.Validate(); err != nil {
		return world{}, err
	}
	w.link = core.DefaultLinkModel(cmaxPPS)
	w.link.GammaMinDBm = cfg.SF.Sensitivity()
	if err := w.link.Validate(); err != nil {
		return world{}, err
	}

	if w.throughput, err = stats.NewTimeSeries(cfg.ThroughputBin, cfg.Duration); err != nil {
		return world{}, err
	}
	w.idxSpeed = max(fleet.MaxSpeedMPS(), 11)
	w.server = netserver.New()

	w.rec = telemetry.NewRecorder()
	w.tracer = cfg.Telemetry.Trace
	if w.tracer != nil {
		w.traceRun = fmt.Sprintf("%s/%s/gw=%d/seed=%d",
			cfg.Environment, cfg.Scheme, cfg.NumGateways, cfg.Seed)
	}
	if cfg.MAC.Enabled() {
		if err := w.setupMAC(); err != nil {
			return world{}, err
		}
	}
	return w, nil
}

// setupMAC assembles the MAC control plane: per-DR PHY tables, the downlink
// airtime cache, the network server's ADR controller and per-gateway
// downlink scheduler. The plane is global: one controller and one
// scheduler, driven in the intrinsic order of the windowed macOp stream.
func (w *world) setupMAC() error {
	w.macOn = true
	w.confirmed = w.cfg.MAC.Confirmed
	for dr := 0; dr < lorawan.NumDataRates; dr++ {
		w.phyByDR[dr] = radio.DefaultPHY(lorawan.DataRate(dr).SF())
		// Downlink airtimes per data rate, without and with a piggybacked
		// LinkADRReq.
		w.dlAirTbl[dr][0] = w.phyByDR[dr].Airtime(lorawan.DownlinkBytes(false))
		w.dlAirTbl[dr][1] = w.phyByDR[dr].Airtime(lorawan.DownlinkBytes(true))
	}
	w.noiseFloor = radio.NoiseFloorDBm(w.phy.BandwidthHz)
	// Resolved by Normalize: 0 selected the device power.
	w.gwTxPowDBm = radio.DBm(w.cfg.MAC.DownlinkTxPowerDBm)

	var ctrl *mac.Controller
	if w.cfg.MAC.ADR {
		var err error
		ctrl, err = mac.NewController(mac.ADRConfig{
			MarginDB:   radio.DB(w.cfg.MAC.ADRMarginDB),
			HistoryLen: w.cfg.MAC.ADRHistory,
			StepDB:     3,
			MinHistory: w.cfg.MAC.ADRMinHistory,
		}, w.fleet.Len())
		if err != nil {
			return err
		}
	}
	sched, err := mac.NewScheduler(len(w.gws), w.cfg.MAC.DownlinkDutyCycle)
	if err != nil {
		return err
	}
	w.server.AttachMAC(&netserver.MAC{ADR: ctrl, Sched: sched})
	return nil
}

// mediumConfig is the radio medium every tile's channel view uses.
func (w *world) mediumConfig() radio.MediumConfig {
	return radio.MediumConfig{
		Loss: w.loss,
		// Connectivity is range-gated per link class as in the paper;
		// sensitivity must not re-gate it, so it is effectively disabled
		// and Eq. (5) consumes the raw RSSI.
		SensitivityDBm: -1e9,
		CaptureDB:      radio.DB(w.cfg.CaptureDB),
	}
}

// newIndex returns an empty device-to-device spatial index over the queue
// slab.
func (w *world) newIndex() *devIndex {
	return newDevIndex(w.cfg.D2DRangeM, ixRebuildEvery, w.idxSpeed, w.queues)
}

// buildDevices creates, in id order, every device whose service window
// opens before the horizon, and hands each to place, which wires the
// device's event closures and, when serves is true, schedules its
// activation, deactivation and first slot at instant first on its tile.
// A dormant device is never built, but still takes its draw from the root
// stream, so every device's stream is the same for any tile layout.
func (w *world) buildDevices(place func(d *device, first time.Duration, serves bool) error) error {
	cfg := &w.cfg
	var joinDR lorawan.DataRate
	if w.macOn {
		joinSF := cfg.MAC.InitialSF
		if joinSF == 0 {
			joinSF = cfg.SF
		}
		joinDR, _ = lorawan.DataRateForSF(joinSF)
	}
	rootRNG := rng.New(cfg.Seed ^ 0xdee1)
	w.devices = make([]*device, w.fleet.Len())
	for i := range w.devices {
		node := w.fleet.Node(i)
		start, end := node.Window()
		if start >= cfg.Duration {
			rootRNG.Uint64()
			continue
		}
		est, err := core.NewGatewayEstimator(w.gwCfg)
		if err != nil {
			return err
		}
		w.queues[i] = *lorawan.NewQueue(cfg.QueueMax)
		d := &device{
			id:             i,
			node:           node,
			cursor:         mobility.NewCursor(node),
			queue:          &w.queues[i],
			est:            est,
			duty:           lorawan.NewDutyGovernor(cfg.DutyCycle),
			rnd:            rootRNG.Split(),
			bundle:         make([]lorawan.Message, 0, lorawan.MaxBundle),
			pendDest:       -1,
			fwdTarget:      -1,
			listenFraction: 1,
			txPowDBm:       radio.DBm(cfg.TxPowerDBm),
			dr:             joinDR,
			flightStart:    -1,
			flightEnd:      -1,
			prevFlightSta:  -1,
			prevFlightEnd:  -1,
		}
		w.devices[i] = d
		// Stagger slots uniformly within the interval so the fleet's
		// uplinks do not synchronise.
		jitter := time.Duration(d.rnd.Uniform(0, cfg.MsgInterval.Seconds()) * float64(time.Second))
		first := start + jitter
		if err := place(d, first, first < end && first < cfg.Duration); err != nil {
			return err
		}
	}
	return nil
}

// uplinkPHY returns the PHY parameters the device's next uplink uses: the
// fixed configured SF without the MAC, the device's ADR data rate with it.
func (w *world) uplinkPHY(d *device) *radio.PHYParams {
	if w.macOn {
		return &w.phyByDR[d.dr]
	}
	return &w.phy
}

// rxTiming returns the receive-window timing for a downlink answering one of
// d's uplinks. When ADR is on, every downlink budgets the full ack+command
// frame, so window selection never depends on the controller's decision.
func (w *world) rxTiming(d *device) netserver.RxTiming {
	withCmd := 0
	if w.cfg.MAC.ADR {
		withCmd = 1
	}
	return netserver.RxTiming{
		RX1Delay: w.cfg.MAC.RX1Delay,
		RX2Delay: w.cfg.MAC.RX2Delay,
		// RX1 answers on the uplink data rate, RX2 on the fixed fallback.
		RX1Air: w.dlAirTbl[d.dr][withCmd],
		RX2Air: w.dlAirTbl[lorawan.DefaultRX2DataRate][withCmd],
	}
}

// collect gathers the Result once the engine's tiles have quiesced, from
// their merged channel statistics and telemetry snapshot, whose
// counters are the run's only tallies, and checks its accounting invariants.
func (w *world) collect(ms radio.MediumStats, snap telemetry.Snapshot) (*Result, error) {
	r := &Result{
		Config:               w.cfg,
		Delivered:            w.server.Count(),
		Duplicates:           w.server.Duplicates(),
		Throughput:           w.throughput,
		Medium:               ms,
		GatewayOutageWindows: w.gatewayOutageWindows,
		DeviceFailures:       w.deviceFailures,
		Telemetry:            snap,
	}
	r.fillTallies()
	// Sized once: grown by append, the two columns would leave about four
	// times their size in outgrown copies at the run's memory peak.
	r.rawDelays = make([]float64, 0, r.Delivered)
	r.originDelivered = make([]int, 0, r.Delivered)
	for del := range w.server.Deliveries() {
		r.Delay.AddDuration(del.Delay())
		r.rawDelays = append(r.rawDelays, del.Delay().Seconds())
		r.originDelivered = append(r.originDelivered, del.Origin)
		r.Hops.Add(float64(del.Hops))
		if del.Hops > 1 {
			r.RelayedDelay.AddDuration(del.Delay())
		} else {
			r.DirectDelay.AddDuration(del.Delay())
		}
	}
	var own telemetry.Counters
	if m := w.server.MAC(); m != nil {
		own.ADRCommands = m.Commands
		own.DownlinkDrops = m.Sched.Stats().Dropped
	}
	for _, d := range w.devices {
		if d == nil {
			continue
		}
		own.QueueDrops += d.queue.Dropped()
		if !d.everActive {
			continue
		}
		r.ActiveDevices++
		r.MsgSendsPerNode.Add(float64(d.msgSends))
		r.FramesPerNode.Add(float64(d.framesSent))
		r.RadioOnPerNode.AddDuration(d.energy.RadioOnTime())
	}
	if err := r.checkAccounting(&own); err != nil {
		return nil, fmt.Errorf("experiment: run result: %w", err)
	}
	return r, nil
}

// compileDisruption is the disruption plan for a run.
func compileDisruption(cfg *Config, gateways, devices int) (*disruption.Plan, error) {
	return disruption.Compile(cfg.Disruption, cfg.Seed^0xd15c, gateways, devices, cfg.Duration)
}

// scheduleDisruption compiles the run's disruption plan, which gatewayUp and
// alive then read, counts its outage windows and device failures, and
// schedules each built device's failure on the tile owning it. A disabled
// config schedules nothing, leaving the run untouched.
func (w *world) scheduleDisruption(owner func(id int) *shard) error {
	if !w.cfg.Disruption.Enabled() {
		return nil
	}
	plan, err := compileDisruption(&w.cfg, len(w.gws), len(w.devices))
	if err != nil {
		return err
	}
	w.plan = plan
	w.gatewayOutageWindows = plan.OutageWindows()
	for di, failAt := range plan.DeviceFailAt {
		if failAt < 0 || failAt >= w.cfg.Duration {
			continue
		}
		w.deviceFailures++
		d := w.devices[di]
		if d == nil {
			continue // dormant: fails before it could ever serve
		}
		s := owner(di)
		if _, err := s.es.At(failAt, func(time.Duration) {
			d.failed = true
			s.deactivate(d)
		}); err != nil {
			return err
		}
	}
	return nil
}

// gatewayUp reports whether gateway gw is outside its outages at instant at.
//
//mlorass:hotpath
func (w *world) gatewayUp(gw int, at time.Duration) bool {
	return w.plan == nil || w.plan.GatewayUp(gw, at)
}

// alive reports whether device d has not churned out by instant at.
//
//mlorass:hotpath
func (w *world) alive(d *device, at time.Duration) bool {
	return w.plan == nil || w.plan.DeviceAlive(d.id, at)
}

// device is one LoRaWAN end-device riding one mobility node.
type device struct {
	id   int
	node mobility.Model

	// cursor is the node's stateful trajectory reader: bit-identical to
	// node.PositionAt but resuming the segment walk between the
	// near-monotonic queries the simulator issues. memo* cache the last
	// query, so one instant's repeated position reads (transmit, range
	// checks, overhearing) resolve once.
	cursor    mobility.Cursor
	memoAt    time.Duration
	memoPos   geo.Point
	memoOK    bool
	memoValid bool

	// failed marks a device permanently lost to mid-run churn (disruption
	// layer): it stops generating, transmitting, and overhearing.
	failed bool

	queue  *lorawan.Queue // the device's entry in world.queues
	est    *core.GatewayEstimator
	duty   *lorawan.DutyGovernor
	energy lorawan.EnergyMeter
	rnd    *rng.Source

	seq      uint32
	attempts int // retransmissions of the current head bundle

	busy           bool // a transmission is on the air
	retryScheduled bool

	// Prebuilt event callbacks: the slot tick and the duty-cycle retry are
	// scheduled millions of times per run, so each device allocates its
	// closures once instead of one per scheduling.
	slotFn  eventsim.Event
	retryFn eventsim.Event

	// bundle is the device's frame scratch: the in-flight transmission's
	// messages live here (at most one transmission is on the air per
	// device), reused across transmissions.
	bundle []lorawan.Message

	// Pending transmission state consumed by resolveUp: the frame on the
	// air, its radio handle, and its destination (-1 = sink uplink).
	pendTx    *radio.Transmission
	pendFrame lorawan.Frame
	pendDest  int

	// Pending handover decision: the next transmission slot is addressed
	// to fwdTarget instead of the sinks (Sec. IV-A: the handover rides
	// the device's regular duty-cycled broadcast). The decision expires
	// after one slot interval so stale neighbours are not chased.
	fwdTarget int
	fwdCount  int
	fwdExpiry time.Duration

	// noSendBack holds neighbours this device received data from; it is
	// cleared on the next successful sink contact (Sec. V-B2). A small
	// sorted-insertion-free id list: membership is a linear scan over the
	// handful of neighbours met since the last sink contact, cheaper and
	// allocation-free compared to a map.
	noSendBack []int32

	// acked records whether any uplink was acknowledged since the last
	// slot tick; the estimator consumes and resets it (Eq. 3's contact
	// observation).
	acked bool

	// MAC-subsystem state (zero and unread when Config.MAC is zero-valued).
	//
	// dr and txPowIdx are the device's current ADR-assigned link
	// parameters; txPowDBm is the resolved transmit power (always
	// initialised, even with the MAC off, so the transmit path reads one
	// field). awaitingAck marks a confirmed uplink whose ack window is
	// open: the device holds its bundle in pendFrame and transmits nothing
	// until the ack arrives or ackTimeoutH fires.
	dr          lorawan.DataRate
	txPowIdx    int
	txPowDBm    radio.DBm
	awaitingAck bool
	ackTimeoutH eventsim.Handle

	// Pending downlink addressed to this device — at most one, freshest
	// wins: if a generous duty cycle lets a new uplink's downlink be
	// scheduled before the previous one lands, the replacement takes the
	// slot and the old resolution no-ops (resolveDownlink matches the
	// instant against dlTx.End). ackTimeoutFn closes the ack window.
	dlTx         *radio.Transmission
	dlAck        bool
	dlCmd        lorawan.LinkADRReq
	dlHasCmd     bool
	ackTimeoutFn eventsim.Event

	// listenFraction is γx for Queue-based Class-A devices (Eq. 11),
	// recomputed each slot; Modified Class-C devices always listen (1).
	listenFraction float64

	everActive bool
	framesSent uint64
	msgSends   uint64

	// Intrinsic identities and on-air record, read where message IDs and
	// draws are keyed and liveness is a function of the instant.
	//
	// msgSeq numbers this device's generated messages so message IDs are
	// intrinsic — (id+1)<<32|msgSeq, see intrinsicMsgID — instead of a
	// global counter whose value would depend on cross-device event
	// interleaving. dlSeq numbers the downlinks sent to it, keying their
	// reception draws. The flight intervals record the device's current
	// and previous uplink on-air spans so a receiver can answer "was this
	// device transmitting at instant T" for any T inside a window without
	// ordering against the transmitter's own events — see busyAt.
	msgSeq        uint32
	dlSeq         uint32
	flightStart   time.Duration
	flightEnd     time.Duration
	prevFlightSta time.Duration
	prevFlightEnd time.Duration
}

// busyAt reports whether one of the device's recorded uplink flights was on
// the air at instant at. Two intervals suffice: the duty governor keeps a
// device from having more than two flights overlap any lookahead window.
//
//mlorass:hotpath
func (d *device) busyAt(at time.Duration) bool {
	if at >= d.flightStart && at < d.flightEnd {
		return true
	}
	return at >= d.prevFlightSta && at < d.prevFlightEnd
}

// pos returns the device's position at the given instant through its
// trajectory cursor, memoising the last query so one instant's repeated
// reads resolve once. Bit-identical to d.node.PositionAt(at).
//
//mlorass:hotpath
func (d *device) pos(at time.Duration) (geo.Point, bool) {
	if d.memoValid && d.memoAt == at {
		return d.memoPos, d.memoOK
	}
	p, ok := d.cursor.PositionAt(at)
	d.memoAt, d.memoPos, d.memoOK, d.memoValid = at, p, ok, true
	return p, ok
}

// distWithin returns the device's exact distance from p at the given
// instant when it is in service there and within r of p, and −1 otherwise:
// the check an overhear loop makes of an index hit left uncertified.
//
//mlorass:hotpath
func (d *device) distWithin(p geo.Point, at time.Duration, r float64) float64 {
	q, ok := d.pos(at)
	if !ok {
		return -1
	}
	// Bounding-box pre-filter before the exact (hypot) distance.
	if dx := p.X - q.X; dx > r || dx < -r {
		return -1
	}
	if dy := p.Y - q.Y; dy > r || dy < -r {
		return -1
	}
	dist := p.Dist(q)
	if dist > r {
		return -1
	}
	return dist
}

// inRangeHook, when set, sees every index hit certified in range that an
// overhear loop trusts instead of checking the device's exact position;
// tests set it to check the certificate.
var inRangeHook func(z *device, p geo.Point, at time.Duration, radius float64)

// banSendBack records that this device received data from the given
// neighbour (no-send-back rule); duplicates are skipped.
func (d *device) banSendBack(id int) {
	for _, b := range d.noSendBack {
		if int(b) == id {
			return
		}
	}
	d.noSendBack = append(d.noSendBack, int32(id))
}

// bannedSendBack reports whether the neighbour is under the no-send-back
// rule.
func (d *device) bannedSendBack(id int) bool {
	for _, b := range d.noSendBack {
		if int(b) == id {
			return true
		}
	}
	return false
}

// indexMotion is the spatial index's motion source: device d's motion at the
// instant nearest mid inside its service window. Devices whose window has
// closed by now are left out. Churned devices stay in: the overhear loops
// check liveness exactly, and may still ask about instants before the
// failure.
//
//mlorass:hotpath
func indexMotion(d *device, now, mid time.Duration) (mobility.Motion, bool) {
	start, end := d.node.Window()
	if end <= now {
		return mobility.Motion{}, false
	}
	at := min(max(mid, start), end-1)
	if m, ok := d.cursor.MotionAt(at); ok {
		return m, true
	}
	// A node asleep at that instant but with a known fixed position stays
	// indexed: it may wake before the next rebuild. Its span is empty, as
	// its service is known at no instant, so queries never certify it.
	if sm, ok := d.node.(mobility.StaticModel); ok {
		return mobility.Motion{At: at, Pos: sm.FixedPosition(), From: at + 1, Until: at}, true
	}
	return mobility.Motion{}, false
}

// gwCand is one in-range gateway during reception resolution.
type gwCand struct {
	idx  int
	dist float64
}
