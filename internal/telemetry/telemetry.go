// Package telemetry is the simulator's streaming observability layer: it
// provides allocation-free metric recorders for the simulation hot path
// (counters and log-linear histograms that merge exactly across replicated
// runs, yielding true cross-replication percentiles instead of mean ± CI
// only) and an optional sampled per-packet event trace behind pluggable
// sinks (JSONL, CSV, in-memory).
//
// Each simulation run owns one Recorder — recorders are per-worker, so
// parallel sweeps never contend — and publishes an immutable Snapshot into
// its Result. Snapshots merge pairwise, which is what turns N replications'
// histograms into one exact population histogram for p50/p95/p99 columns.
package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Counters are the hot-path event tallies of one simulation run. Fields are
// plain uint64s incremented by a single goroutine (each run owns its
// Recorder), so recording costs one add and no allocation.
type Counters struct {
	// Generated counts application messages created by devices.
	Generated uint64
	// FramesOnAir counts LoRa frames transmitted (uplinks + handovers).
	FramesOnAir uint64
	// UplinkDeliveries counts frames decoded by a gateway.
	UplinkDeliveries uint64
	// ServerFresh counts messages accepted by the network server as new.
	ServerFresh uint64
	// ServerDuplicates counts message copies the server deduplicated.
	ServerDuplicates uint64
	// RelayHops counts successful device-to-device message transfers.
	RelayHops uint64
	// HandoverAttempts counts handover frames sent to a chosen neighbour;
	// HandoverSuccesses counts those the target decoded.
	HandoverAttempts  uint64
	HandoverSuccesses uint64
	// HandoverMissedMsgs counts messages in handover frames the target
	// missed; the sender requeues them.
	HandoverMissedMsgs uint64
	// QueueDrops counts messages dropped by full device queues, on push
	// and on requeue.
	QueueDrops uint64
	// KernelEvents counts discrete events executed by the simulation
	// kernel (populated only while tracing, via the eventsim probe).
	KernelEvents uint64
	// TraceEvents counts trace records emitted to the sink.
	TraceEvents uint64

	// MAC-subsystem tallies (all zero when Config.MAC is zero-valued).

	// Downlinks counts gateway downlink frames put on the air.
	Downlinks uint64
	// DownlinkDeliveries counts downlinks decoded by their device.
	DownlinkDeliveries uint64
	// DownlinkDrops counts downlinks the per-gateway duty budget could not
	// place in either receive window.
	DownlinkDrops uint64
	// AckTimeouts counts confirmed uplinks whose ack window closed unacked.
	AckTimeouts uint64
	// Retransmissions counts confirmed-uplink retransmissions after an ack
	// timeout.
	Retransmissions uint64
	// ADRCommands counts LinkADRReq commands the network server issued.
	ADRCommands uint64
	// ADRApplied counts LinkADRReq commands devices received and applied.
	ADRApplied uint64
}

// Merge adds other's tallies into c.
func (c *Counters) Merge(other Counters) {
	c.Generated += other.Generated
	c.FramesOnAir += other.FramesOnAir
	c.UplinkDeliveries += other.UplinkDeliveries
	c.ServerFresh += other.ServerFresh
	c.ServerDuplicates += other.ServerDuplicates
	c.RelayHops += other.RelayHops
	c.HandoverAttempts += other.HandoverAttempts
	c.HandoverSuccesses += other.HandoverSuccesses
	c.HandoverMissedMsgs += other.HandoverMissedMsgs
	c.QueueDrops += other.QueueDrops
	c.KernelEvents += other.KernelEvents
	c.TraceEvents += other.TraceEvents
	c.Downlinks += other.Downlinks
	c.DownlinkDeliveries += other.DownlinkDeliveries
	c.DownlinkDrops += other.DownlinkDrops
	c.AckTimeouts += other.AckTimeouts
	c.Retransmissions += other.Retransmissions
	c.ADRCommands += other.ADRCommands
	c.ADRApplied += other.ADRApplied
}

// SFCounts tallies uplink frames per spreading factor: index 0 is SF7, index
// 5 is SF12. It is the coarse "where did ADR move the network" histogram —
// exact under merge like every fixed-layout counter.
type SFCounts [6]uint64

// Add counts one uplink frame at the given spreading factor (7..12);
// out-of-range values are ignored.
func (s *SFCounts) Add(sf int) {
	if sf < 7 || sf > 12 {
		return
	}
	s[sf-7]++
}

// Merge folds other into s.
func (s *SFCounts) Merge(other SFCounts) {
	for i, c := range other {
		s[i] += c
	}
}

// Total returns the number of counted frames.
func (s SFCounts) Total() uint64 {
	var t uint64
	for _, c := range s {
		t += c
	}
	return t
}

// MeanSF returns the frame-weighted mean spreading factor (0 when empty).
func (s SFCounts) MeanSF() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	var sum uint64
	for i, c := range s {
		sum += uint64(i+7) * c
	}
	return float64(sum) / float64(t)
}

// Recorder accumulates one run's metrics. Every run records: recording
// costs an atomic add per event and never allocates.
//
// Concurrency contract: exactly one goroutine (the simulation that owns the
// recorder) may record; any number of goroutines may call Snapshot at any
// time — a live /metrics scrape never tears a counter. Internally every word
// is atomic, and the single-writer discipline means recording needs no
// read-modify-write loops. A Snapshot taken mid-run may straddle an
// in-flight observation (histogram bucket sums can briefly lead the moment
// fields); a Snapshot taken after the run quiesces is exact, which is what
// keeps golden results bit-identical.
type Recorder struct {
	c atomicCounters
	// delay buckets end-to-end delays of delivered messages in seconds.
	delay liveHist
	// airtime buckets transmitted frames' time-on-air in seconds.
	airtime liveHist
	// sf tallies uplink frames per spreading factor.
	sf [6]atomic.Uint64
}

// atomicCounters mirrors Counters field-for-field with atomic words, so one
// writer can keep counting while scrapers read.
type atomicCounters struct {
	generated          atomic.Uint64
	framesOnAir        atomic.Uint64
	uplinkDeliveries   atomic.Uint64
	serverFresh        atomic.Uint64
	serverDuplicates   atomic.Uint64
	relayHops          atomic.Uint64
	handoverAttempts   atomic.Uint64
	handoverSuccesses  atomic.Uint64
	handoverMissedMsgs atomic.Uint64
	queueDrops         atomic.Uint64
	kernelEvents       atomic.Uint64
	traceEvents        atomic.Uint64
	downlinks          atomic.Uint64
	downlinkDeliveries atomic.Uint64
	downlinkDrops      atomic.Uint64
	ackTimeouts        atomic.Uint64
	retransmissions    atomic.Uint64
	adrCommands        atomic.Uint64
	adrApplied         atomic.Uint64
}

func (a *atomicCounters) snapshot() Counters {
	return Counters{
		Generated:          a.generated.Load(),
		FramesOnAir:        a.framesOnAir.Load(),
		UplinkDeliveries:   a.uplinkDeliveries.Load(),
		ServerFresh:        a.serverFresh.Load(),
		ServerDuplicates:   a.serverDuplicates.Load(),
		RelayHops:          a.relayHops.Load(),
		HandoverAttempts:   a.handoverAttempts.Load(),
		HandoverSuccesses:  a.handoverSuccesses.Load(),
		HandoverMissedMsgs: a.handoverMissedMsgs.Load(),
		QueueDrops:         a.queueDrops.Load(),
		KernelEvents:       a.kernelEvents.Load(),
		TraceEvents:        a.traceEvents.Load(),
		Downlinks:          a.downlinks.Load(),
		DownlinkDeliveries: a.downlinkDeliveries.Load(),
		DownlinkDrops:      a.downlinkDrops.Load(),
		AckTimeouts:        a.ackTimeouts.Load(),
		Retransmissions:    a.retransmissions.Load(),
		ADRCommands:        a.adrCommands.Load(),
		ADRApplied:         a.adrApplied.Load(),
	}
}

// liveHist is the Recorder-internal writer side of a Histogram: the same
// fixed layout with every word atomic. The single writer stores the moment
// fields with plain load/op/store (no CAS needed) and publishes n last, so a
// reader that observes n > 0 always sees initialised min/max. Bucket counts
// use atomic adds; a mid-run snapshot may count an in-flight observation in
// a bucket before it reaches sum — self-consistent and strictly monotonic,
// and exact once the writer quiesces.
type liveHist struct {
	counts  [histBuckets]atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	n       atomic.Uint64
}

func (h *liveHist) add(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	n := h.n.Load()
	if n == 0 {
		h.minBits.Store(math.Float64bits(v))
		h.maxBits.Store(math.Float64bits(v))
	} else {
		if v < math.Float64frombits(h.minBits.Load()) {
			h.minBits.Store(math.Float64bits(v))
		}
		if v > math.Float64frombits(h.maxBits.Load()) {
			h.maxBits.Store(math.Float64bits(v))
		}
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sumBits.Store(math.Float64bits(math.Float64frombits(h.sumBits.Load()) + v))
	h.n.Store(n + 1)
}

// snapshot converts the live state to a plain Histogram. The count total is
// summed from the buckets (not the published n) so the snapshot's buckets
// always account for every counted observation.
func (h *liveHist) snapshot() Histogram {
	var out Histogram
	if h.n.Load() == 0 {
		return out
	}
	out.min = math.Float64frombits(h.minBits.Load())
	out.max = math.Float64frombits(h.maxBits.Load())
	out.sum = math.Float64frombits(h.sumBits.Load())
	for i := range h.counts {
		c := h.counts[i].Load()
		out.counts[i] = c
		out.n += c
	}
	return out
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// AddGenerated counts one generated application message.
func (r *Recorder) AddGenerated() {
	r.c.generated.Add(1)
}

// AddFrame counts one transmitted frame.
func (r *Recorder) AddFrame() {
	r.c.framesOnAir.Add(1)
}

// AddUplinkDelivery counts one frame decoded by a gateway.
func (r *Recorder) AddUplinkDelivery() {
	r.c.uplinkDeliveries.Add(1)
}

// AddServerFresh counts n messages newly accepted by the server.
func (r *Recorder) AddServerFresh(n int) {
	r.c.serverFresh.Add(uint64(n))
}

// AddServerDuplicate counts one deduplicated copy.
func (r *Recorder) AddServerDuplicate() {
	r.c.serverDuplicates.Add(1)
}

// AddRelayHops counts n messages moved by a successful handover.
func (r *Recorder) AddRelayHops(n int) {
	r.c.relayHops.Add(uint64(n))
}

// AddHandoverAttempt counts one handover frame sent to a neighbour.
func (r *Recorder) AddHandoverAttempt() {
	r.c.handoverAttempts.Add(1)
}

// AddHandoverSuccess counts one handover frame its target decoded.
func (r *Recorder) AddHandoverSuccess() {
	r.c.handoverSuccesses.Add(1)
}

// AddHandoverMissedMsgs counts n messages in a handover frame the target
// missed.
func (r *Recorder) AddHandoverMissedMsgs(n int) {
	r.c.handoverMissedMsgs.Add(uint64(n))
}

// AddQueueDrops counts n messages dropped by a full queue.
func (r *Recorder) AddQueueDrops(n int) {
	r.c.queueDrops.Add(uint64(n))
}

// AddKernelEvent counts one executed kernel event (eventsim probe).
func (r *Recorder) AddKernelEvent() {
	r.c.kernelEvents.Add(1)
}

// OnEvent implements the eventsim Probe shape: one clock-stamped callback
// per executed kernel event.
func (r *Recorder) OnEvent(time.Duration) { r.AddKernelEvent() }

// AddTraceEvent counts one emitted trace record.
func (r *Recorder) AddTraceEvent() {
	r.c.traceEvents.Add(1)
}

// AddDownlink counts one gateway downlink frame transmitted.
func (r *Recorder) AddDownlink() {
	r.c.downlinks.Add(1)
}

// AddDownlinkDelivery counts one downlink decoded by its device.
func (r *Recorder) AddDownlinkDelivery() {
	r.c.downlinkDeliveries.Add(1)
}

// AddDownlinkDrop counts one downlink no receive window had budget for.
func (r *Recorder) AddDownlinkDrop() {
	r.c.downlinkDrops.Add(1)
}

// AddAckTimeout counts one confirmed uplink whose ack never arrived.
func (r *Recorder) AddAckTimeout() {
	r.c.ackTimeouts.Add(1)
}

// AddRetransmission counts one confirmed-uplink retransmission.
func (r *Recorder) AddRetransmission() {
	r.c.retransmissions.Add(1)
}

// AddADRCommand counts one LinkADRReq the network server issued.
func (r *Recorder) AddADRCommand() {
	r.c.adrCommands.Add(1)
}

// AddADRApplied counts one LinkADRReq received and applied by a device.
func (r *Recorder) AddADRApplied() {
	r.c.adrApplied.Add(1)
}

// AddUplinkSF counts one uplink frame transmitted at the given spreading
// factor (7..12); out-of-range values are ignored.
func (r *Recorder) AddUplinkSF(sf int) {
	if sf >= 7 && sf <= 12 {
		r.sf[sf-7].Add(1)
	}
}

// ObserveDelay records one delivered message's end-to-end delay in seconds.
func (r *Recorder) ObserveDelay(seconds float64) {
	r.delay.add(seconds)
}

// ObserveAirtime records one transmitted frame's time-on-air in seconds.
func (r *Recorder) ObserveAirtime(seconds float64) {
	r.airtime.add(seconds)
}

// Snapshot returns a copy of the recorder's state.
// Safe to call from any goroutine while the owning simulation is still
// recording; see the Recorder concurrency contract.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Counters: r.c.snapshot(),
		Delay:    r.delay.snapshot(),
		Airtime:  r.airtime.snapshot(),
	}
	for i := range r.sf {
		s.SF[i] = r.sf[i].Load()
	}
	return s
}

// Snapshot is one run's immutable telemetry: counters plus the delay and
// airtime histograms and the uplink SF distribution. Snapshots from
// replicated runs merge exactly.
type Snapshot struct {
	Counters Counters  `json:"counters"`
	Delay    Histogram `json:"delay"`
	Airtime  Histogram `json:"airtime"`
	// SF is the uplink spreading-factor distribution (all frames land on
	// the configured SF when ADR is off).
	SF SFCounts `json:"sf_uplinks"`
}

// Merge folds other into s (exact: see Histogram.Merge).
func (s *Snapshot) Merge(other Snapshot) {
	s.Counters.Merge(other.Counters)
	s.Delay.Merge(&other.Delay)
	s.Airtime.Merge(&other.Airtime)
	s.SF.Merge(other.SF)
}
