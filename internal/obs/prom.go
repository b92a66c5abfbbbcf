package obs

import (
	"fmt"
	"io"
	"strconv"

	"mlorass/internal/telemetry"
)

// This file is a dependency-free encoder for the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, counters, gauges, and native
// histograms with cumulative le-labeled buckets. The histogram buckets are
// the telemetry layout's power-of-two octave edges — exact bucket
// boundaries of the in-process log-linear histograms, so the exposition
// re-bins nothing and merges exactly across scrapes. Metric names and
// label sets are locked by a golden test; changing them is a wire-format
// break for any deployed scrape config.

// promWriter accumulates the first write error so encoding stays linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// fnum formats a float the way Prometheus expects: shortest round-trip
// representation, "+Inf" for the unbounded bucket.
func fnum(v float64) string {
	if v > 1e308 {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) counter(name, help string, v uint64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s %s\n", name, fnum(v))
}

func (p *promWriter) histogram(name, help string, h *telemetry.Histogram) {
	p.header(name, help, "histogram")
	var total uint64
	h.ForEachOctaveCum(func(le float64, cum uint64) {
		p.printf("%s_bucket{le=\"%s\"} %d\n", name, fnum(le), cum)
		total = cum
	})
	p.printf("%s_sum %s\n", name, fnum(h.Sum()))
	p.printf("%s_count %d\n", name, total)
}

// WriteSnapshot writes snap as a Prometheus text exposition. The family
// set is fixed: every metric is always present (zero-valued when unused),
// so scrape series never appear or vanish mid-run.
func WriteSnapshot(w io.Writer, snap telemetry.Snapshot) error {
	p := &promWriter{w: w}
	c := snap.Counters
	p.counter("mlorass_messages_generated_total", "Application messages created by devices.", c.Generated)
	p.counter("mlorass_frames_on_air_total", "LoRa frames transmitted (uplinks and handovers).", c.FramesOnAir)
	p.counter("mlorass_uplink_deliveries_total", "Frames decoded by a gateway.", c.UplinkDeliveries)
	p.counter("mlorass_server_fresh_total", "Messages accepted by the network server as new.", c.ServerFresh)
	p.counter("mlorass_server_duplicates_total", "Message copies the server deduplicated.", c.ServerDuplicates)
	p.counter("mlorass_relay_hops_total", "Successful device-to-device message transfers.", c.RelayHops)
	p.counter("mlorass_handover_attempts_total", "Handover frames sent to a chosen neighbour.", c.HandoverAttempts)
	p.counter("mlorass_handover_successes_total", "Handover frames their target decoded.", c.HandoverSuccesses)
	p.counter("mlorass_handover_missed_msgs_total", "Messages in handover frames the target missed (requeued by the sender).", c.HandoverMissedMsgs)
	p.counter("mlorass_queue_drops_total", "Messages dropped by full device queues.", c.QueueDrops)
	p.counter("mlorass_kernel_events_total", "Discrete events executed by the simulation kernel (populated while tracing).", c.KernelEvents)
	p.counter("mlorass_trace_events_total", "Trace records emitted to the sink.", c.TraceEvents)
	p.counter("mlorass_downlinks_total", "Gateway downlink frames put on the air.", c.Downlinks)
	p.counter("mlorass_downlink_deliveries_total", "Downlinks decoded by their device.", c.DownlinkDeliveries)
	p.counter("mlorass_downlink_drops_total", "Downlinks the per-gateway duty budget could not place.", c.DownlinkDrops)
	p.counter("mlorass_ack_timeouts_total", "Confirmed uplinks whose ack window closed unacked.", c.AckTimeouts)
	p.counter("mlorass_retransmissions_total", "Confirmed-uplink retransmissions after an ack timeout.", c.Retransmissions)
	p.counter("mlorass_adr_commands_total", "LinkADRReq commands the network server issued.", c.ADRCommands)
	p.counter("mlorass_adr_applied_total", "LinkADRReq commands devices received and applied.", c.ADRApplied)

	p.header("mlorass_uplink_sf_frames_total", "Uplink frames per spreading factor.", "counter")
	for i, n := range snap.SF {
		p.printf("mlorass_uplink_sf_frames_total{sf=\"%d\"} %d\n", i+7, n)
	}

	p.histogram("mlorass_delay_seconds", "End-to-end delay of delivered messages.", &snap.Delay)
	p.histogram("mlorass_airtime_seconds", "Time-on-air of transmitted frames.", &snap.Airtime)
	return p.err
}

// writeRuntime appends the server-side families — live run count, sweep
// progress, and per-phase span totals — to an exposition already carrying
// the telemetry snapshot. Families are stable; phase label pairs appear as
// phases first run.
func writeRuntime(w io.Writer, reg *Registry, flight *FlightRecorder, sweep *SweepTracker) error {
	p := &promWriter{w: w}
	p.gauge("mlorass_live_runs", "Simulation runs currently attached for live scraping.", float64(reg.LiveRuns()))

	st := sweep.Status()
	p.gauge("mlorass_sweep_cells_total", "Cells in the active sweep (0 when no sweep is running).", float64(st.Total))
	p.gauge("mlorass_sweep_cells_done", "Sweep cells completed so far.", float64(st.Done))
	p.gauge("mlorass_sweep_cells_cached", "Completed sweep cells served from the run store.", float64(st.Cached))
	p.gauge("mlorass_sweep_cells_running", "Sweep cells currently executing.", float64(st.Running))
	p.gauge("mlorass_farm_retries_total", "Sweep-farm cell attempts that failed and were scheduled for retry.", float64(st.Farm.Retries))
	p.gauge("mlorass_farm_lease_expiries_total", "Sweep-farm retries caused by lease expiry (lost workers).", float64(st.Farm.Expired))
	p.gauge("mlorass_farm_quarantined_cells", "Sweep-farm cells quarantined as explicit gaps.", float64(st.Farm.Quarantined))
	p.gauge("mlorass_farm_duplicate_completions_total", "Sweep-farm duplicate completions discarded by the exactly-once merge.", float64(st.Farm.Duplicates))
	p.gauge("mlorass_farm_worker_crashes_total", "Sweep-farm worker deaths observed by the supervisor.", float64(st.Farm.Crashes))
	p.header("mlorass_farm_worker_leases", "Live leases held per sweep-farm worker.", "gauge")
	for _, w := range st.Farm.Workers {
		p.printf("mlorass_farm_worker_leases{worker=%q} %d\n", w.Worker, w.Leases)
	}

	if flight != nil {
		p.counter("mlorass_spans_recorded_total", "Phase spans recorded by the flight recorder.", flight.Recorded())
		p.counter("mlorass_spans_evicted_total", "Phase spans evicted from the bounded ring.", flight.Dropped())
		totals := flight.PhaseTotals()
		p.header("mlorass_phase_spans_total", "Phase spans recorded per engine phase and shard.", "counter")
		for _, t := range totals {
			p.printf("mlorass_phase_spans_total{phase=%q,shard=\"%d\"} %d\n", t.Name, t.Shard, t.Count)
		}
		p.header("mlorass_phase_seconds_total", "Wall-clock seconds spent per engine phase and shard.", "counter")
		for _, t := range totals {
			p.printf("mlorass_phase_seconds_total{phase=%q,shard=\"%d\"} %s\n", t.Name, t.Shard, fnum(t.Total.Seconds()))
		}
	}
	return p.err
}
