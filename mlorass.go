// Package mlorass is a Go reproduction of "Contact-Aware Opportunistic Data
// Forwarding in Disconnected LoRaWAN Mobile Networks" (Chen, Bhatia, Kolcun,
// Boyle, McCann — ICDCS 2020).
//
// It implements the paper's two contributions — the RCA-ETX network metric
// and the ROBC backpressure forwarding scheme — together with every
// substrate the evaluation needs: a discrete-event simulator, a LoRa PHY
// with collisions and capture, a LoRaWAN MAC with the paper's Modified
// Class-C and Queue-based Class-A device classes, pluggable mobility models
// (the paper's synthetic London bus network, random-waypoint vehicles, and
// duty-cycled sensor grids), a disruption layer scheduling gateway outages
// and device churn, gateway planning, a network server, and the full
// experiment harness regenerating the paper's figures.
//
// This root package is the public API: configure a scenario with Config,
// execute it with Run, and read the measurements from Result. Everything
// the examples and benchmarks use flows through these re-exports; the
// internal packages are implementation detail.
//
// Quickstart:
//
//	cfg := mlorass.QuickConfig()
//	cfg.Scheme = mlorass.SchemeROBC
//	res, err := mlorass.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Report())
package mlorass

import (
	"io"
	"time"

	"mlorass/internal/core"
	"mlorass/internal/disruption"
	"mlorass/internal/experiment"
	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/stats"
	"mlorass/internal/telemetry"
	"mlorass/internal/tfl"
)

// Scheme selects the forwarding scheme under test.
type Scheme = routing.Scheme

// The three evaluated schemes (Sec. VII-A7).
const (
	// SchemeNoRouting is modified LoRaWAN without data forwarding.
	SchemeNoRouting = routing.SchemeNoRouting
	// SchemeRCAETX is greedy forwarding on the RCA-ETX metric (Eq. 1).
	SchemeRCAETX = routing.SchemeRCAETX
	// SchemeROBC is Real-time Opportunistic Backpressure Collection.
	SchemeROBC = routing.SchemeROBC
)

// DeviceClass selects the LoRaWAN device class.
type DeviceClass = lorawan.DeviceClass

// Device classes, including the paper's two proposals (Sec. VI).
const (
	ClassA         = lorawan.ClassA
	ClassB         = lorawan.ClassB
	ClassC         = lorawan.ClassC
	ClassModifiedC = lorawan.ClassModifiedC
	ClassQueueA    = lorawan.ClassQueueA
)

// Environment selects the urban (0.5 km d2d) or rural (1 km d2d) setting.
type Environment = experiment.Environment

// Environments (Sec. VII-A6).
const (
	Urban = experiment.Urban
	Rural = experiment.Rural
)

// Config parameterises one simulation scenario. See experiment.Config for
// field documentation; zero fields take paper defaults.
type Config = experiment.Config

// MobilityModel selects the movement scenario of a run.
type MobilityModel = experiment.MobilityModel

// Mobility models: the paper's timetabled bus fleet (the zero value), a
// random-waypoint vehicle fleet, and a static duty-cycled sensor grid.
const (
	MobilityBuses          = experiment.MobilityBuses
	MobilityRandomWaypoint = experiment.MobilityRandomWaypoint
	MobilitySensorGrid     = experiment.MobilitySensorGrid
)

// MobilityConfig selects and parameterises the movement scenario
// (Config.Mobility); the zero value reproduces the paper's bus fleet.
type MobilityConfig = experiment.MobilityConfig

// DisruptionConfig schedules gateway outage/recovery windows and permanent
// mid-run device churn (Config.Disruption); the zero value keeps the
// infrastructure permanently healthy as in the paper.
type DisruptionConfig = disruption.Config

// ParseMobilityModel resolves a scenario name ("buses", "randomwaypoint",
// "sensorgrid") to its model, matching the cmd/expsweep -scenario flag.
func ParseMobilityModel(s string) (MobilityModel, error) {
	return experiment.ParseMobilityModel(s)
}

// Result carries a run's measurements: delivery counts, delay and hop
// statistics, the throughput time series, and per-node overhead.
type Result = experiment.Result

// Summary is a streaming mean/stddev/min/max accumulator.
type Summary = stats.Summary

// TelemetryOptions selects a run's telemetry behaviour (recorders on by
// default; optional sampled per-packet trace).
type TelemetryOptions = experiment.TelemetryOptions

// TelemetrySnapshot is one run's streamed metrics: counters plus the
// exactly-mergeable delay and airtime histograms.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryHistogram is the fixed-layout log-linear histogram behind the
// pooled p50/p95/p99 columns; histograms merge exactly across runs.
type TelemetryHistogram = telemetry.Histogram

// TraceEvent is one per-packet trace record; TraceSink consumes them.
type TraceEvent = telemetry.Event

// TraceSink consumes trace events (JSONL, CSV, or in-memory).
type TraceSink = telemetry.Sink

// NewTracer builds a sampling per-packet tracer over a sink (one in every
// messages; every < 1 traces everything). Wire it into
// Config.Telemetry.Trace.
func NewTracer(sink TraceSink, every int) *telemetry.Tracer {
	return telemetry.NewTracer(sink, every)
}

// NewJSONLTraceSink writes one JSON trace line per event to w.
func NewJSONLTraceSink(w io.Writer) TraceSink { return telemetry.NewJSONLSink(w) }

// NewCSVTraceSink writes trace events as CSV rows to w.
func NewCSVTraceSink(w io.Writer) TraceSink { return telemetry.NewCSVSink(w) }

// RunStore is the content-addressed on-disk run-artifact store behind
// resumable sweeps (SweepOptions.Store).
type RunStore = runstore.Store

// OpenRunStore opens (creating if needed) a run-artifact store directory.
func OpenRunStore(dir string) (*RunStore, error) { return runstore.Open(dir) }

// DefaultConfig returns the paper-shaped 24-hour scenario (density-
// preserving 4x downscale of the 600 km² London world).
func DefaultConfig() Config { return experiment.DefaultConfig() }

// QuickConfig returns a small 4-hour scenario for tests and demos.
func QuickConfig() Config { return experiment.QuickConfig() }

// Run executes one scenario.
func Run(cfg Config) (*Result, error) { return experiment.Run(cfg) }

// SweepOptions configures ParallelSweep: worker-pool size, replications per
// cell, and an optional run store.
type SweepOptions = experiment.SweepOptions

// AggregatePoint is one sweep cell with per-replication Results and their
// cross-replication Aggregate.
type AggregatePoint = experiment.AggregatePoint

// Aggregate holds cross-replication statistics (mean ± 95% CI per metric).
type Aggregate = experiment.Aggregate

// ParallelSweep runs the figure grid across a worker pool with multi-seed
// replication, collapsing each cell into mean ± 95% CI aggregates in
// deterministic figure order.
func ParallelSweep(base Config, env Environment, opts SweepOptions) ([]AggregatePoint, error) {
	return experiment.ParallelSweep(base, env, opts)
}

// RepSeed derives the seed of replication rep from a base seed
// (replication 0 reuses the base seed).
func RepSeed(base uint64, rep int) uint64 { return experiment.RepSeed(base, rep) }

// AggregateResults collapses replicated run Results into an Aggregate.
func AggregateResults(reps []*Result) *Aggregate { return experiment.AggregateResults(reps) }

// Fig8AggTable, Fig9AggTable, Fig12AggTable and Fig13AggTable render
// replicated sweep results as the paper tables with 95% confidence
// intervals.
func Fig8AggTable(points []AggregatePoint) string  { return experiment.Fig8AggTable(points) }
func Fig9AggTable(points []AggregatePoint) string  { return experiment.Fig9AggTable(points) }
func Fig12AggTable(points []AggregatePoint) string { return experiment.Fig12AggTable(points) }
func Fig13AggTable(points []AggregatePoint) string { return experiment.Fig13AggTable(points) }

// Fig8PercentilesAggTable renders pooled p50/p95/p99 end-to-end delay
// columns from the exactly merged per-replication histograms.
func Fig8PercentilesAggTable(points []AggregatePoint) string {
	return experiment.Fig8PercentilesAggTable(points)
}

// GatewaySweep returns the gateway counts used by the figure sweeps.
func GatewaySweep() []int { return experiment.GatewaySweep() }

// OutageFractions returns the gateway-down fractions of the resilience sweep.
func OutageFractions() []float64 { return experiment.OutageFractions() }

// OutageSweep runs the outage-resilience grid (every scheme × gateway-down
// fraction, one replication per cell) on ParallelSweep's worker pool and
// run store.
func OutageSweep(base Config, env Environment, opts SweepOptions) ([]AggregatePoint, error) {
	return experiment.OutageGrid.Sweep(base, env, opts, nil)
}

// OutageTable renders the resilience sweep: delivery ratio per scheme as the
// fraction of gateways down grows.
func OutageTable(points []AggregatePoint) string { return experiment.OutageTable(points) }

// MACConfig parameterises the adaptive-data-rate and confirmed-traffic
// subsystem (Config.MAC). The zero value is the paper's uplink-only model,
// byte-identical to a simulator without the MAC control plane.
type MACConfig = experiment.MACConfig

// ADRMode is one column of the ADR sweep (fixed-SF, ADR, ADR+confirmed).
type ADRMode = experiment.ADRMode

// ADRModes lists the ADR sweep's MAC configurations in column order.
func ADRModes() []ADRMode { return experiment.ADRModes() }

// ADRSweep runs the adaptive-data-rate grid (every MAC mode × gateway
// count, one replication per cell) on ParallelSweep's worker pool and run
// store.
func ADRSweep(base Config, env Environment, opts SweepOptions) ([]AggregatePoint, error) {
	return experiment.ADRGrid.Sweep(base, env, opts, nil)
}

// ADRTable renders the ADR sweep: delivery ratio, mean uplink SF, and
// retransmissions per MAC mode as gateway density grows.
func ADRTable(points []AggregatePoint) string { return experiment.ADRTable(points) }

// GenerateDataset builds the synthetic TFL-like bus dataset used by the
// evaluation; see the tfl package for the CSV interchange format.
func GenerateDataset(seed uint64, numRoutes int, peakHeadway time.Duration) (*tfl.Dataset, error) {
	return tfl.Generate(tfl.DefaultGenConfig(seed, numRoutes, peakHeadway))
}

// Metric construction — the paper's Eqs. 1–6 and 10, exposed for users who
// want the metric without the simulator.

// GatewayConfig parameterises a gateway-quality estimator.
type GatewayConfig = core.GatewayConfig

// GatewayEstimator tracks one device's RCA-ETX(x, S) in real time.
type GatewayEstimator = core.GatewayEstimator

// LinkModel maps overheard RSSI to link capacity and RCA-ETX(x, y).
type LinkModel = core.LinkModel

// NewGatewayEstimator builds an RCA-ETX estimator (Eqs. 2–4).
func NewGatewayEstimator(cfg GatewayConfig) (*GatewayEstimator, error) {
	return core.NewGatewayEstimator(cfg)
}

// DefaultGatewayConfig returns the paper's evaluation parameters (α = 0.5,
// Δt = 3 min).
func DefaultGatewayConfig() GatewayConfig { return core.DefaultGatewayConfig() }

// DefaultLinkModel returns the evaluation's RSSI→capacity ramp (Eq. 5).
func DefaultLinkModel(cmaxPPS float64) LinkModel { return core.DefaultLinkModel(cmaxPPS) }

// ShouldForwardGreedy applies the RCA-ETX forwarding rule (Eq. 1).
func ShouldForwardGreedy(ownETX, neighbourETX, linkETX float64) bool {
	return core.ShouldForwardGreedy(ownETX, neighbourETX, linkETX)
}

// ROBCWeight computes the backpressure weight ω (Eq. 10).
func ROBCWeight(qx, qy int, phiX, phiY float64) float64 {
	return core.ROBCWeight(qx, qy, phiX, phiY)
}

// ROBCTransfer computes the transfer amount δ (Sec. V-B2).
func ROBCTransfer(qx, qy int, phiX, phiY float64) int {
	return core.ROBCTransfer(qx, qy, phiX, phiY)
}

// Dataset re-exports: external users build custom mobility datasets through
// these aliases (the internal packages are not importable).

// Dataset is a day of bus-network routes and vehicle shifts.
type Dataset = tfl.Dataset

// Route is one fixed polyline bus line.
type Route = tfl.Route

// Trip is one vehicle's service shift on a route.
type Trip = tfl.Trip

// Point is a planar position in metres.
type Point = geo.Point

// Area is an axis-aligned rectangle of the planar world.
type Area = geo.Rect

// SquareArea returns a square operating area with the given side in metres.
func SquareArea(side float64) Area { return geo.Square(side) }

// EncodeDataset and DecodeDataset serialise datasets in the CSV interchange
// format, so converted real TFL exports can be dropped in.
func EncodeDataset(w io.Writer, d *Dataset) error { return tfl.Encode(w, d) }

// DecodeDataset parses a dataset written by EncodeDataset.
func DecodeDataset(r io.Reader) (*Dataset, error) { return tfl.Decode(r) }

// Fig8MatchedTable renders the survivorship-corrected delay comparison over
// each cell's replication 0 (see experiment.Fig8MatchedTable).
func Fig8MatchedTable(points []AggregatePoint) string { return experiment.Fig8MatchedTable(points) }
