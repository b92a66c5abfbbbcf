package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mlorass/internal/radio"
	"mlorass/internal/stats"
	"mlorass/internal/telemetry"
)

// Result carries every measurement the paper's figures are built from.
//
// Its JSON form is the run store's artefact (resultArtifact embeds it). The
// tallies the run's recorder keeps are tagged "-": they are stored once, in
// Telemetry.Counters, and fillTallies copies them out.
type Result struct {
	// Config echoes the run configuration (with defaults filled in).
	Config Config `json:"-"`

	// Generated counts application messages created by all devices.
	Generated uint64 `json:"-"`
	// Delivered counts distinct messages that reached the server: the
	// total-throughput quantity of Fig. 9.
	Delivered int `json:"delivered"`
	// Duplicates counts redundant copies the server discarded.
	Duplicates uint64 `json:"duplicates"`
	// QueueDrops counts messages discarded by full device queues.
	QueueDrops uint64 `json:"-"`

	// Delay summarises end-to-end delays of delivered messages in
	// seconds (Fig. 8).
	Delay stats.Summary `json:"delay"`
	// Hops summarises wireless hop counts of delivered messages
	// (Fig. 12; direct uplinks count 1).
	Hops stats.Summary `json:"hops"`
	// MsgSendsPerNode summarises, per ever-active device, the number of
	// message copies transmitted — the paper's Fig. 13 energy-overhead
	// proxy.
	MsgSendsPerNode stats.Summary `json:"msg_sends_per_node"`
	// FramesPerNode summarises transmitted frames per ever-active device.
	FramesPerNode stats.Summary `json:"frames_per_node"`
	// RadioOnPerNode summarises per-device radio-on time in seconds
	// (transmit + listen), the Queue-based Class-A ablation quantity.
	RadioOnPerNode stats.Summary `json:"radio_on_per_node"`

	// Throughput is the arrivals time series in ThroughputBin buckets
	// (Figs. 10–11).
	Throughput *stats.TimeSeries `json:"throughput"`

	// Medium carries channel-level counters (collisions etc.).
	Medium radio.MediumStats `json:"medium"`

	// ActiveDevices counts devices that operated during the horizon.
	ActiveDevices int `json:"active_devices"`

	// HandoverAttempts and HandoverSuccesses count device-to-device
	// transfer transmissions; HandoverMsgs counts messages moved.
	HandoverAttempts  uint64 `json:"-"`
	HandoverSuccesses uint64 `json:"-"`
	HandoverMsgs      uint64 `json:"-"`
	// HandoverMissedMsgs counts messages in handover frames the target
	// missed. They are not lost: the sender returns them to its queue head
	// and sends them again.
	HandoverMissedMsgs uint64 `json:"-"`

	// MAC-subsystem measurements (all zero when Config.MAC is
	// zero-valued — the paper's uplink-only model).

	// Downlinks counts gateway downlink frames put on the air;
	// DownlinkDeliveries counts those decoded by their device.
	Downlinks          uint64 `json:"-"`
	DownlinkDeliveries uint64 `json:"-"`
	// DownlinkDrops counts downlinks the per-gateway duty budget could
	// not place in either receive window.
	DownlinkDrops uint64 `json:"-"`
	// AckTimeouts counts confirmed uplinks whose ack window closed
	// unanswered; Retransmissions counts the retries they triggered.
	AckTimeouts     uint64 `json:"-"`
	Retransmissions uint64 `json:"-"`
	// ADRCommands counts LinkADRReq commands the network server issued;
	// ADRApplied counts those devices received and applied.
	ADRCommands uint64 `json:"-"`
	ADRApplied  uint64 `json:"-"`

	// GatewayOutageWindows counts the disruption layer's scheduled
	// gateway downtime windows (0 when disruption is off).
	GatewayOutageWindows int `json:"gateway_outage_windows"`
	// DeviceFailures counts devices permanently churned out mid-run by
	// the disruption layer.
	DeviceFailures int `json:"device_failures"`

	// DirectDelay and RelayedDelay split the delivered-message delays by
	// whether the message ever hopped device-to-device.
	DirectDelay  stats.Summary `json:"direct_delay"`
	RelayedDelay stats.Summary `json:"relayed_delay"`

	// Telemetry is the run's streaming-metrics snapshot: hot-path
	// counters plus the delay and airtime histograms, which merge
	// exactly across replications.
	Telemetry telemetry.Snapshot `json:"telemetry"`

	// rawDelays holds every delivered message's delay in seconds, for
	// percentile analysis (internal diagnostics and sweeps).
	rawDelays []float64
}

// DelayPercentile returns the p-th percentile of delivered-message delays in
// seconds.
func (r *Result) DelayPercentile(p float64) float64 {
	return stats.Percentile(r.rawDelays, p)
}

// MatchedDelayMean returns the mean delay in seconds over the k fastest
// deliveries. Comparing schemes at the same k (the smallest delivery count
// among them) removes the survivorship bias that inflates a forwarding
// scheme's plain mean: rescuing messages the baseline never delivers adds
// slow samples that the baseline's mean simply omits.
func (r *Result) MatchedDelayMean(k int) float64 {
	if k <= 0 || len(r.rawDelays) == 0 {
		return 0
	}
	sorted := make([]float64, len(r.rawDelays))
	copy(sorted, r.rawDelays)
	sort.Float64s(sorted)
	if k > len(sorted) {
		k = len(sorted)
	}
	sum := 0.0
	for _, v := range sorted[:k] {
		sum += v
	}
	return sum / float64(k)
}

// DeliveryRatio returns Delivered/Generated (0 when nothing was generated).
func (r *Result) DeliveryRatio() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Generated)
}

// fillTallies copies the tallies the run's recorder keeps out of
// r.Telemetry.Counters: a finished run and a decoded artefact both take them
// from there.
func (r *Result) fillTallies() {
	c := &r.Telemetry.Counters
	r.Generated = c.Generated
	r.QueueDrops = c.QueueDrops
	r.HandoverAttempts = c.HandoverAttempts
	r.HandoverSuccesses = c.HandoverSuccesses
	r.HandoverMsgs = c.RelayHops
	r.HandoverMissedMsgs = c.HandoverMissedMsgs
	r.Downlinks = c.Downlinks
	r.DownlinkDeliveries = c.DownlinkDeliveries
	r.DownlinkDrops = c.DownlinkDrops
	r.AckTimeouts = c.AckTimeouts
	r.Retransmissions = c.Retransmissions
	r.ADRCommands = c.ADRCommands
	r.ADRApplied = c.ADRApplied
}

// checkAccounting reports the first accounting identity r breaks. Every run
// keeps them all: no more deliveries than generated messages, one delay and
// one hop sample and one arrival per delivery, and telemetry server counters
// equal to the ledger's totals. own, when not nil, holds the totals the
// run's queues and MAC plane keep beside the recorder (QueueDrops,
// ADRCommands, DownlinkDrops), which must equal the recorder's.
func (r *Result) checkAccounting(own *telemetry.Counters) error {
	c := &r.Telemetry.Counters
	switch {
	case uint64(r.Delivered) > r.Generated:
		return fmt.Errorf("delivered %d exceeds generated %d", r.Delivered, r.Generated)
	case r.Delay.N() != uint64(r.Delivered) || r.Hops.N() != uint64(r.Delivered):
		return fmt.Errorf("summaries (n=%d/%d) inconsistent with delivered %d", r.Delay.N(), r.Hops.N(), r.Delivered)
	case r.Throughput.Total() != r.Delivered:
		return fmt.Errorf("throughput series sums to %d, delivered %d", r.Throughput.Total(), r.Delivered)
	case c.ServerFresh != uint64(r.Delivered) || c.ServerDuplicates != r.Duplicates:
		return fmt.Errorf("telemetry server counters %d fresh/%d duplicates, result %d/%d",
			c.ServerFresh, c.ServerDuplicates, r.Delivered, r.Duplicates)
	case own != nil && (own.QueueDrops != c.QueueDrops || own.ADRCommands != c.ADRCommands || own.DownlinkDrops != c.DownlinkDrops):
		return fmt.Errorf("subsystem totals %d queue drops/%d ADR commands/%d downlink drops, telemetry %d/%d/%d",
			own.QueueDrops, own.ADRCommands, own.DownlinkDrops, c.QueueDrops, c.ADRCommands, c.DownlinkDrops)
	}
	return nil
}

// MeanDelay returns the mean end-to-end delay.
func (r *Result) MeanDelay() time.Duration {
	return time.Duration(r.Delay.Mean() * float64(time.Second))
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s gw=%d: delivered %d/%d (%.1f%%), delay %s ±%.0fs, hops %.2f, sends/node %.1f",
		r.Config.Scheme, r.Config.Environment, r.Config.NumGateways,
		r.Delivered, r.Generated, 100*r.DeliveryRatio(),
		r.MeanDelay().Round(time.Second), r.Delay.StdErr(),
		r.Hops.Mean(), r.MsgSendsPerNode.Mean())
}

// Aggregate collapses the Results of replicated runs (same scenario,
// different seeds) into cross-replication statistics. Each Summary field
// holds one scalar per replication, so Mean() is the replication mean and
// CI95() the half-width of the 95% confidence interval — the error bars a
// multi-seed figure reports instead of one-seed point estimates.
type Aggregate struct {
	// Reps is the number of replications aggregated.
	Reps int

	// Delivered summarises per-replication delivered-message counts
	// (Fig. 9's quantity).
	Delivered stats.Summary
	// DeliveryPct summarises per-replication delivery ratios in percent.
	DeliveryPct stats.Summary
	// MeanDelayS summarises per-replication mean end-to-end delays in
	// seconds (Fig. 8's quantity).
	MeanDelayS stats.Summary
	// MeanHops summarises per-replication mean hop counts (Fig. 12).
	MeanHops stats.Summary
	// MaxHops summarises per-replication maximum hop counts.
	MaxHops stats.Summary
	// SendsPerNode summarises per-replication mean message sends per node
	// (Fig. 13's energy-overhead proxy).
	SendsPerNode stats.Summary
	// QueueDrops summarises per-replication queue-drop counts.
	QueueDrops stats.Summary
	// Collisions summarises per-replication channel collision counts.
	Collisions stats.Summary

	// Telemetry merges the replications' snapshots exactly: DelayHist's
	// percentiles are the true percentiles of the pooled delivered-message
	// population, not an average of per-replication percentiles — the
	// lossless aggregation mean ± CI cannot provide.
	Telemetry telemetry.Snapshot
}

// DelayPercentiles returns the pooled p50/p95/p99 end-to-end delays in
// seconds across all replications.
func (a *Aggregate) DelayPercentiles() (p50, p95, p99 float64) {
	h := &a.Telemetry.Delay
	return h.Percentile(50), h.Percentile(95), h.Percentile(99)
}

// AggregateResults collapses replicated runs into an Aggregate. Replications
// are folded in slice order, so the same Results always produce the same
// Aggregate bit for bit. Nil entries are skipped.
func AggregateResults(reps []*Result) *Aggregate {
	a := &Aggregate{}
	for _, r := range reps {
		if r == nil {
			continue
		}
		a.Reps++
		a.Delivered.Add(float64(r.Delivered))
		a.DeliveryPct.Add(100 * r.DeliveryRatio())
		a.MeanDelayS.Add(r.Delay.Mean())
		a.MeanHops.Add(r.Hops.Mean())
		a.MaxHops.Add(r.Hops.Max())
		a.SendsPerNode.Add(r.MsgSendsPerNode.Mean())
		a.QueueDrops.Add(float64(r.QueueDrops))
		a.Collisions.Add(float64(r.Medium.Collisions))
		a.Telemetry.Merge(r.Telemetry)
	}
	return a
}

// String renders a one-line "metric mean ±CI" summary of the aggregate.
func (a *Aggregate) String() string {
	return fmt.Sprintf("reps=%d: delivered %.0f ±%.0f, delay %.1f ±%.1fs, hops %.2f ±%.2f, sends/node %.1f ±%.1f",
		a.Reps,
		a.Delivered.Mean(), a.Delivered.CI95(),
		a.MeanDelayS.Mean(), a.MeanDelayS.CI95(),
		a.MeanHops.Mean(), a.MeanHops.CI95(),
		a.SendsPerNode.Mean(), a.SendsPerNode.CI95())
}

// Report renders a multi-line human-readable report.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s env=%s gateways=%d class=%s seed=%d\n",
		r.Config.Scheme, r.Config.Environment, r.Config.NumGateways, r.Config.Class, r.Config.Seed)
	fmt.Fprintf(&b, "  devices active          %d\n", r.ActiveDevices)
	fmt.Fprintf(&b, "  messages generated      %d\n", r.Generated)
	fmt.Fprintf(&b, "  messages delivered      %d (%.1f%%)\n", r.Delivered, 100*r.DeliveryRatio())
	fmt.Fprintf(&b, "  duplicates discarded    %d\n", r.Duplicates)
	fmt.Fprintf(&b, "  queue drops             %d\n", r.QueueDrops)
	fmt.Fprintf(&b, "  mean end-to-end delay   %s (stderr %.1fs)\n", r.MeanDelay().Round(time.Second), r.Delay.StdErr())
	fmt.Fprintf(&b, "  mean hops               %.2f (max %.0f)\n", r.Hops.Mean(), r.Hops.Max())
	fmt.Fprintf(&b, "  msg sends per node      %.1f\n", r.MsgSendsPerNode.Mean())
	fmt.Fprintf(&b, "  frames per node         %.1f\n", r.FramesPerNode.Mean())
	fmt.Fprintf(&b, "  radio-on per node       %s\n", time.Duration(r.RadioOnPerNode.Mean()*float64(time.Second)).Round(time.Second))
	fmt.Fprintf(&b, "  channel: tx=%d rx=%d collisions=%d\n", r.Medium.Transmissions, r.Medium.Receptions, r.Medium.Collisions)
	fmt.Fprintf(&b, "  handovers: %d/%d ok, %d msgs moved, %d msgs requeued\n", r.HandoverSuccesses, r.HandoverAttempts, r.HandoverMsgs, r.HandoverMissedMsgs)
	fmt.Fprintf(&b, "  delay direct %.0fs (n=%d) vs relayed %.0fs (n=%d)\n",
		r.DirectDelay.Mean(), r.DirectDelay.N(), r.RelayedDelay.Mean(), r.RelayedDelay.N())
	// Disruption lines appear only for disrupted runs so paper-default
	// reports stay byte-identical to the pre-scenario-engine output.
	if r.Config.Disruption.Enabled() {
		fmt.Fprintf(&b, "  disruption: %d gateway outage windows, %d device failures\n",
			r.GatewayOutageWindows, r.DeviceFailures)
	}
	// MAC lines likewise appear only when the subsystem is on, keeping the
	// zero-value-off invariant visible in the report bytes themselves.
	if r.Config.MAC.Enabled() {
		fmt.Fprintf(&b, "  mac: adr=%v confirmed=%v\n", r.Config.MAC.ADR, r.Config.MAC.Confirmed)
		fmt.Fprintf(&b, "  downlinks: %d on air, %d received, %d budget-dropped\n",
			r.Downlinks, r.DownlinkDeliveries, r.DownlinkDrops)
		fmt.Fprintf(&b, "  confirmed: %d ack timeouts, %d retransmissions\n",
			r.AckTimeouts, r.Retransmissions)
		meanSF := "n/a" // the SF distribution lives in telemetry
		if r.Telemetry.SF.Total() > 0 {
			meanSF = fmt.Sprintf("%.2f", r.Telemetry.SF.MeanSF())
		}
		fmt.Fprintf(&b, "  adr: %d commands issued, %d applied, mean uplink SF %s\n",
			r.ADRCommands, r.ADRApplied, meanSF)
	}
	if r.Config.Mobility.Model != MobilityBuses {
		fmt.Fprintf(&b, "  mobility: %s (%d nodes)\n", r.Config.Mobility.Model, r.Config.Mobility.NumNodes)
	}
	return b.String()
}
