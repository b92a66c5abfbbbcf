// Package experiment assembles the full MLoRa-SS simulation from the
// substrate packages and runs the paper's evaluation scenarios: the London
// bus network mobility, grid-deployed gateways, a shared SF7 channel, the
// device classes, and one of the three forwarding schemes.
//
// One Run executes one 24-hour (configurable) scenario and returns the
// measurements every figure in Sec. VII is built from. Sweep helpers in this
// package regenerate the figure series; the bench harness at the repository
// root and cmd/expsweep call into them.
package experiment

import (
	"fmt"
	"time"

	"mlorass/internal/disruption"
	"mlorass/internal/geo"
	"mlorass/internal/gwplan"
	"mlorass/internal/lorawan"
	"mlorass/internal/radio"
	"mlorass/internal/routing"
	"mlorass/internal/telemetry"
	"mlorass/internal/tfl"
)

// Environment selects the paper's urban/rural device-to-device range
// settings (Sec. VII-A6: 0.5 km urban — buildings block signals — and 1 km
// rural, equal to the device-to-gateway range).
type Environment int

// Environments.
const (
	Urban Environment = iota + 1
	Rural
)

// String names the environment.
func (e Environment) String() string {
	switch e {
	case Urban:
		return "urban"
	case Rural:
		return "rural"
	default:
		return fmt.Sprintf("Environment(%d)", int(e))
	}
}

// D2DRangeM returns the device-to-device communication range in metres.
func (e Environment) D2DRangeM() float64 {
	if e == Rural {
		return 1000
	}
	return 500
}

// Config parameterises one simulation run. Zero fields are filled by
// Normalize; Validate rejects inconsistent settings.
type Config struct {
	// Seed drives every random stream in the run.
	Seed uint64

	// Scheme is the forwarding scheme under test.
	Scheme routing.Scheme
	// Class is the device class; the paper's main results use Modified
	// Class-C, with Queue-based Class-A as the energy ablation.
	Class lorawan.DeviceClass

	// Environment picks the urban/rural device-to-device range. Ignored
	// when D2DRangeM is set explicitly.
	Environment Environment
	// D2DRangeM overrides the environment's device-to-device range.
	D2DRangeM float64
	// GatewayRangeM is the device-to-gateway range (paper: 1 km at SF7).
	GatewayRangeM float64

	// NumGateways is the gateway count (the paper sweeps 40–100).
	NumGateways int
	// GatewayStrategy places gateways (grid by default).
	GatewayStrategy gwplan.Strategy

	// Mobility selects and parameterises the movement scenario. The zero
	// value is the paper's timetabled bus fleet (sized by the dataset
	// fields below); MobilityRandomWaypoint and MobilitySensorGrid open
	// non-timetabled and static duty-cycled workloads.
	Mobility MobilityConfig

	// Disruption schedules gateway outage/recovery windows and permanent
	// mid-run device churn on the simulation timeline. The zero value
	// keeps every gateway up and every device alive for the whole run —
	// the paper's setting.
	Disruption disruption.Config

	// Mobility scale: the synthetic TFL dataset parameters. Either supply
	// a Dataset directly or let Run generate one from NumRoutes and
	// PeakHeadway over an AreaSideM square.
	Dataset     *tfl.Dataset
	NumRoutes   int
	PeakHeadway time.Duration
	// AreaSideM is the side of the square simulation area in metres.
	// The default world is a density-preserving 4x downscale of the
	// paper's 600 km² (24.5 km square): a 12.25 km square (150 km²)
	// holding one quarter of the gateways and buses, so buses-per-km²,
	// gateways-per-km², and all ranges match the paper exactly while a
	// 24-hour run stays laptop-sized. NumGateways therefore corresponds
	// to 4x its value in the paper's figures (15 ≡ 60).
	AreaSideM float64

	// Duration is the simulated horizon (paper: 24 h).
	Duration time.Duration
	// MsgInterval is Δt: message generation and uplink-slot interval
	// (paper: 3 min).
	MsgInterval time.Duration
	// QueueMax bounds each device's data queue (Qmax in Eq. 11).
	QueueMax int

	// Alpha is the RCA-ETX EWMA weight (paper evaluation: 0.5).
	Alpha float64

	// Radio parameters.
	SF            radio.SpreadingFactor
	TxPowerDBm    float64
	DutyCycle     float64
	ShadowSigmaDB float64
	CaptureDB     float64

	// ThroughputBin is the bucket width of the arrival time series
	// (paper Figs. 10–11: 10 minutes).
	ThroughputBin time.Duration

	// Telemetry configures the run's streaming observability: the
	// always-on counters/histograms and the optional per-packet trace.
	// The zero value records metrics and traces nothing, and leaves every
	// reported figure byte-identical to the pre-telemetry simulator.
	Telemetry TelemetryOptions

	// MAC configures the adaptive-data-rate and confirmed-traffic
	// subsystem. The zero value switches the whole MAC control plane off —
	// fixed SF, fixed power, instant always-successful acks — which is the
	// paper's setting; every existing figure is byte-identical under it.
	MAC MACConfig

	// Shards is the number of spatial tiles the city is partitioned into,
	// in [1, 1024]; the zero value selects 1. Each tile runs one event
	// kernel on its own goroutine, synchronised by conservative-lookahead
	// windows; results are bit-identical for every N and every tile
	// boundary — see the README "Sharded runs" determinism contract.
	Shards int
}

// MACConfig parameterises the ADR + confirmed-downlink subsystem. The zero
// value disables it entirely (Enabled() == false): no downlinks exist, no
// extra random draws are made, and the run is byte-identical to the paper's
// uplink-only model. Unset knobs of an enabled config are filled with
// LoRaWAN defaults by Normalize.
type MACConfig struct {
	// ADR enables the network-server SNR-margin data-rate adaptation:
	// uplink SNR history per device, LinkADRReq commands delivered through
	// downlinks.
	ADR bool
	// Confirmed switches device uplinks to confirmed traffic: gateways
	// answer each decoded uplink with an ack downlink in RX1/RX2, and
	// unacked devices retransmit with backoff instead of assuming success.
	Confirmed bool

	// ADRMarginDB is the installation margin of the ADR algorithm. Like
	// every other knob, 0 selects the default (10 dB); use a small
	// positive value for an effectively zero margin.
	ADRMarginDB float64
	// ADRHistory is the per-device SNR window length (default 20 uplinks).
	ADRHistory int
	// ADRMinHistory is the observation count required before the first
	// command (default 4).
	ADRMinHistory int
	// InitialSF is the spreading factor devices join at (default: the
	// run's configured SF). Real LoRaWAN devices join at a robust slow
	// rate and let ADR speed them up; setting SF12 here with ADR on
	// reproduces that ramp, and is what the ADR sweep measures against
	// the paper's fixed-SF7 baseline.
	InitialSF radio.SpreadingFactor

	// RX1Delay and RX2Delay are the Class-A receive-window offsets
	// (defaults 1 s and 2 s).
	RX1Delay, RX2Delay time.Duration
	// DownlinkDutyCycle is the per-gateway transmit duty fraction
	// (default 0.1, the EU868 10 % downlink sub-band).
	DownlinkDutyCycle float64
	// DownlinkTxPowerDBm is the gateway transmit power. 0 selects the
	// device TxPowerDBm (symmetric links); Normalize resolves it, so the
	// echoed Result.Config always shows the power the run used.
	DownlinkTxPowerDBm float64
	// AckRetryMax bounds confirmed-uplink transmissions of one frame
	// (default: the paper's 8-attempt retry budget).
	AckRetryMax int
}

// Enabled reports whether any part of the MAC control plane is on. The
// paper's model corresponds to the zero value (off).
func (m MACConfig) Enabled() bool { return m.ADR || m.Confirmed }

// normalize fills unset knobs of an enabled config; a disabled config is
// left exactly zero so the zero-value-off invariant is visible in the
// echoed Result.Config. deviceTxPowDBm anchors the downlink-power default.
func (m *MACConfig) normalize(deviceTxPowDBm float64) {
	if !m.Enabled() {
		return
	}
	if m.DownlinkTxPowerDBm == 0 {
		m.DownlinkTxPowerDBm = deviceTxPowDBm
	}
	if m.ADRMarginDB == 0 {
		m.ADRMarginDB = 10
	}
	if m.ADRHistory == 0 {
		m.ADRHistory = 20
	}
	if m.ADRMinHistory == 0 {
		m.ADRMinHistory = 4
	}
	if m.RX1Delay == 0 {
		m.RX1Delay = lorawan.DefaultRX1Delay
	}
	if m.RX2Delay == 0 {
		m.RX2Delay = lorawan.DefaultRX2Delay
	}
	if m.DownlinkDutyCycle == 0 {
		m.DownlinkDutyCycle = 0.1
	}
	if m.AckRetryMax == 0 {
		m.AckRetryMax = lorawan.DefaultRetryPolicy().Max
	}
}

// validate reports configuration errors of an enabled MAC config.
func (m MACConfig) validate() error {
	if !m.Enabled() {
		return nil
	}
	if m.ADRMarginDB < 0 {
		return fmt.Errorf("experiment: MAC.ADRMarginDB %v must be non-negative", m.ADRMarginDB)
	}
	if m.ADRHistory <= 0 {
		return fmt.Errorf("experiment: MAC.ADRHistory %d must be positive", m.ADRHistory)
	}
	if m.ADRMinHistory <= 0 || m.ADRMinHistory > m.ADRHistory {
		return fmt.Errorf("experiment: MAC.ADRMinHistory %d outside [1, %d]", m.ADRMinHistory, m.ADRHistory)
	}
	if m.RX1Delay <= 0 || m.RX2Delay <= m.RX1Delay {
		return fmt.Errorf("experiment: receive windows RX1=%v RX2=%v must satisfy 0 < RX1 < RX2", m.RX1Delay, m.RX2Delay)
	}
	if m.DownlinkDutyCycle <= 0 || m.DownlinkDutyCycle > 1 {
		return fmt.Errorf("experiment: MAC.DownlinkDutyCycle %v outside (0, 1]", m.DownlinkDutyCycle)
	}
	if m.AckRetryMax <= 0 {
		return fmt.Errorf("experiment: MAC.AckRetryMax %d must be positive", m.AckRetryMax)
	}
	if m.InitialSF != 0 && !m.InitialSF.Valid() {
		return fmt.Errorf("experiment: MAC.InitialSF %d invalid", int(m.InitialSF))
	}
	return nil
}

// TelemetryOptions selects where a run's telemetry goes besides its
// Result. Every run records its metrics into Result.Telemetry; these fields
// only add sinks and change no measurement.
type TelemetryOptions struct {
	// Trace, when non-nil, receives sampled per-packet events (generate,
	// relay hops, gateway uplink, server deliver/dedup, queue drops).
	// The tracer may be shared across the runs of a sweep: sinks are
	// concurrency-safe and every event carries its run label. Tracing
	// does not alter any measurement.
	Trace *telemetry.Tracer
	// Spans, when non-nil, receives wall-clock phase spans: per-window
	// kernel/resolve/deliver and merge timings from the engine's tiles,
	// one labelled "cell" timing per job from Grid.Sweep (every sweep
	// grid: figure, outage, ADR). Span timing lives entirely in
	// the sink (internal/obs.FlightRecorder) — the engines never read the
	// clock, so instrumentation cannot perturb results. Runtime-only:
	// excluded from JSON artefacts and from the run-store key, like Trace.
	Spans telemetry.SpanSink `json:"-"`
	// Live, when non-nil, is handed each run's metric Recorder for the
	// run's lifetime so an external scraper (internal/obs.Registry) can
	// serve /metrics mid-run; Recorder snapshots are concurrency-safe.
	// Runtime-only, like Spans.
	Live telemetry.LiveAttacher `json:"-"`
}

// DefaultConfig returns the paper-shaped scenario at a laptop-runnable
// scale: the full 600 km² area and 24-hour horizon with a fleet sized by
// NumRoutes × PeakHeadway.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Scheme:          routing.SchemeNoRouting,
		Class:           lorawan.ClassModifiedC,
		Environment:     Urban,
		GatewayRangeM:   1000,
		NumGateways:     15,
		GatewayStrategy: gwplan.Grid,
		NumRoutes:       45,
		PeakHeadway:     6 * time.Minute,
		AreaSideM:       12250,
		Duration:        24 * time.Hour,
		MsgInterval:     3 * time.Minute,
		QueueMax:        1000,
		Alpha:           0.5,
		SF:              radio.SF7,
		TxPowerDBm:      14,
		DutyCycle:       0.01,
		ShadowSigmaDB:   7.8,
		CaptureDB:       6,
		ThroughputBin:   10 * time.Minute,
	}
}

// QuickConfig returns a reduced-scale scenario for tests and benchmarks:
// a 4-hour horizon over a smaller fleet, same physics.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.NumRoutes = 16
	cfg.PeakHeadway = 12 * time.Minute
	cfg.Duration = 4 * time.Hour
	cfg.NumGateways = 5
	cfg.AreaSideM = 8000
	return cfg
}

// Normalize fills unset fields from DefaultConfig so partially specified
// configs behave predictably.
func (c *Config) Normalize() {
	def := DefaultConfig()
	if c.Scheme == 0 {
		c.Scheme = def.Scheme
	}
	if c.Class == 0 {
		c.Class = def.Class
	}
	if c.Environment == 0 {
		c.Environment = def.Environment
	}
	if c.D2DRangeM == 0 {
		c.D2DRangeM = c.Environment.D2DRangeM()
	}
	if c.GatewayRangeM == 0 {
		c.GatewayRangeM = def.GatewayRangeM
	}
	if c.NumGateways == 0 {
		c.NumGateways = def.NumGateways
	}
	if c.GatewayStrategy == 0 {
		c.GatewayStrategy = def.GatewayStrategy
	}
	if c.NumRoutes == 0 {
		c.NumRoutes = def.NumRoutes
	}
	if c.PeakHeadway == 0 {
		c.PeakHeadway = def.PeakHeadway
	}
	if c.AreaSideM == 0 {
		c.AreaSideM = def.AreaSideM
	}
	if c.Duration == 0 {
		c.Duration = def.Duration
	}
	if c.MsgInterval == 0 {
		c.MsgInterval = def.MsgInterval
	}
	if c.QueueMax == 0 {
		c.QueueMax = def.QueueMax
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Alpha == 0 {
		c.Alpha = def.Alpha
	}
	if c.SF == 0 {
		c.SF = def.SF
	}
	if c.TxPowerDBm == 0 {
		c.TxPowerDBm = def.TxPowerDBm
	}
	if c.DutyCycle == 0 {
		c.DutyCycle = def.DutyCycle
	}
	if c.ShadowSigmaDB == 0 {
		c.ShadowSigmaDB = def.ShadowSigmaDB
	}
	if c.CaptureDB == 0 {
		c.CaptureDB = def.CaptureDB
	}
	if c.ThroughputBin == 0 {
		c.ThroughputBin = def.ThroughputBin
	}
	c.MAC.normalize(c.TxPowerDBm)
	if c.Mobility.Model != MobilityBuses {
		dm := defaultMobility()
		if c.Mobility.NumNodes == 0 {
			c.Mobility.NumNodes = dm.NumNodes
		}
		if c.Mobility.SpeedMinMPS == 0 {
			c.Mobility.SpeedMinMPS = dm.SpeedMinMPS
		}
		if c.Mobility.SpeedMaxMPS == 0 {
			c.Mobility.SpeedMaxMPS = dm.SpeedMaxMPS
		}
		if c.Mobility.PauseMax == 0 {
			c.Mobility.PauseMax = dm.PauseMax
		}
		if c.Mobility.OnWindow == 0 {
			c.Mobility.OnWindow = dm.OnWindow
		}
		if c.Mobility.Period == 0 {
			c.Mobility.Period = dm.Period
		}
	}
}

// Validate reports configuration errors. Call Normalize first.
func (c *Config) Validate() error {
	if !c.Scheme.Valid() {
		return fmt.Errorf("experiment: invalid scheme %d", int(c.Scheme))
	}
	if !c.Class.Valid() {
		return fmt.Errorf("experiment: invalid device class %d", int(c.Class))
	}
	if !c.Class.CanOverhear() && c.Scheme != routing.SchemeNoRouting {
		return fmt.Errorf("experiment: scheme %v requires an overhearing device class, got %v", c.Scheme, c.Class)
	}
	if c.D2DRangeM <= 0 || c.GatewayRangeM <= 0 {
		return fmt.Errorf("experiment: ranges d2d=%v gw=%v must be positive", c.D2DRangeM, c.GatewayRangeM)
	}
	if c.NumGateways <= 0 {
		return fmt.Errorf("experiment: NumGateways %d must be positive", c.NumGateways)
	}
	if !c.GatewayStrategy.Valid() {
		return fmt.Errorf("experiment: invalid gateway strategy %d", int(c.GatewayStrategy))
	}
	if c.Dataset == nil && (c.NumRoutes <= 0 || c.PeakHeadway <= 0 || c.AreaSideM <= 0) {
		return fmt.Errorf("experiment: need a dataset or NumRoutes/PeakHeadway/AreaSideM")
	}
	if c.Duration <= 0 || c.MsgInterval <= 0 {
		return fmt.Errorf("experiment: duration %v and interval %v must be positive", c.Duration, c.MsgInterval)
	}
	if c.MsgInterval >= c.Duration {
		return fmt.Errorf("experiment: interval %v must be shorter than duration %v", c.MsgInterval, c.Duration)
	}
	if c.QueueMax <= 0 {
		return fmt.Errorf("experiment: QueueMax %d must be positive", c.QueueMax)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("experiment: alpha %v outside (0, 1]", c.Alpha)
	}
	if !c.SF.Valid() {
		return fmt.Errorf("experiment: invalid SF %d", int(c.SF))
	}
	if c.DutyCycle <= 0 || c.DutyCycle > 1 {
		return fmt.Errorf("experiment: duty cycle %v outside (0, 1]", c.DutyCycle)
	}
	if c.ThroughputBin <= 0 {
		return fmt.Errorf("experiment: throughput bin %v must be positive", c.ThroughputBin)
	}
	if !c.Mobility.Model.Valid() {
		return fmt.Errorf("experiment: invalid mobility model %d", int(c.Mobility.Model))
	}
	if c.Mobility.Model != MobilityBuses {
		if c.Dataset != nil {
			return fmt.Errorf("experiment: Dataset only applies to the %v model, not %v", MobilityBuses, c.Mobility.Model)
		}
		if c.GatewayStrategy == gwplan.RouteAware {
			return fmt.Errorf("experiment: route-aware gateway placement needs the %v model, got %v", MobilityBuses, c.Mobility.Model)
		}
		if c.Mobility.NumNodes <= 0 {
			return fmt.Errorf("experiment: Mobility.NumNodes %d must be positive", c.Mobility.NumNodes)
		}
	}
	if err := c.Disruption.Validate(); err != nil {
		return err
	}
	if err := c.MAC.validate(); err != nil {
		return err
	}
	if c.Shards < 0 || c.Shards > 1024 {
		return fmt.Errorf("experiment: Shards %d outside [1, 1024] (0 selects 1)", c.Shards)
	}
	return nil
}

// area returns the simulation area: the dataset's if supplied, otherwise the
// configured square.
func (c *Config) area() geo.Rect {
	if c.Dataset != nil {
		return c.Dataset.Area
	}
	return geo.Square(c.AreaSideM)
}
