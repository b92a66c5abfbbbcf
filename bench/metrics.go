package main

import (
	"runtime"
)

// metricDef names one reported metric. The tables below are the benchmark's
// definition; BENCHMARK.json at the repository root mirrors them, and a test
// holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Bound is the share of the parent's median by which a metric
// may worsen before a change counts as a regression. The bounds come from
// the run-to-run spreads and the drift between sets of runs measured on the
// calibration host (see README.md); set-up, a few milliseconds long, gets
// the widest.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.20},
	{"sim_speedup", "s/s", "higher", 0.20},
	{"cells_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mib", "MiB", "lower", 0.15},
}

// cpuShareMetrics lists one CPU-share metric per profile layer.
func cpuShareMetrics() []metricDef {
	out := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		out[i] = metricDef{Name: l + ".cpu_share", Unit: "share", Better: "lower"}
	}
	return out
}

// perLayer are the traced run's metrics. Every workload reports every one;
// a layer the workload never enters reads 0. Times of layers that only some
// workloads enter are shares of the time they could have used, so that such
// a 0 is never mistaken for a measured duration.
var perLayer = append([]metricDef{
	{"eventsim.events", "count", "lower", 0},
	{"experiment.ns_per_event", "ns", "lower", 0},
	{"experiment.cell_p50_ms", "ms", "lower", 0},
	{"experiment.cell_p95_ms", "ms", "lower", 0},
	{"experiment.pool.idle_share", "share", "lower", 0},
	{"experiment.tiles.windows", "count", "lower", 0},
	{"experiment.tiles.import_fanout", "count", "lower", 0},
	{"experiment.tiles.kernel_share", "share", "lower", 0},
	{"experiment.tiles.resolve_share", "share", "lower", 0},
	{"experiment.tiles.deliver_share", "share", "lower", 0},
	{"experiment.tiles.merge_share", "share", "lower", 0},
	{"experiment.tiles.barrier_wait_share", "share", "lower", 0},
	{"experiment.tiles.unspanned_share", "share", "lower", 0},
	{"experiment.tiles.coverage", "share", "higher", 0},
	{"radio.transmissions", "count", "lower", 0},
	{"radio.collisions", "count", "lower", 0},
	{"radio.collision_ratio", "ratio", "lower", 0},
	{"netserver.ingests", "count", "lower", 0},
	{"netserver.duplicates", "count", "lower", 0},
	{"netserver.dup_ratio", "ratio", "lower", 0},
	{"routing.relay_hops", "count", "lower", 0},
	{"routing.handover_success_ratio", "ratio", "higher", 0},
	{"lorawan.queue_drops", "count", "lower", 0},
	{"runstore.puts", "count", "lower", 0},
	{"runstore.gets", "count", "lower", 0},
	{"runstore.bytes_written", "B", "lower", 0},
	{"runstore.put_share", "share", "lower", 0},
	{"runstore.get_share", "share", "lower", 0},
	{"sweepfarm.claims", "count", "lower", 0},
	{"sweepfarm.claim_hit_ratio", "ratio", "higher", 0},
	{"sweepfarm.heartbeats", "count", "lower", 0},
	{"sweepfarm.retries", "count", "lower", 0},
	{"sweepfarm.expiries", "count", "lower", 0},
	{"sweepfarm.duplicates", "count", "lower", 0},
	{"sweepfarm.runner_share", "share", "higher", 0},
	{"sweepfarm.claim_share", "share", "lower", 0},
	{"sweepfarm.complete_share", "share", "lower", 0},
	{"sweepfarm.verify_share", "share", "lower", 0},
	{"sweepfarm.absorb_share", "share", "lower", 0},
	{"sweepfarm.poll_wait_share", "share", "lower", 0},
	{"sweepfarm.worker_accounted_share", "share", "higher", 0},
	{"wire.calls", "count", "lower", 0},
	{"wire.overhead_share", "share", "lower", 0},
	{"wire.bytes_tx", "B", "lower", 0},
	{"wire.bytes_rx", "B", "lower", 0},
	{"wire.bytes_per_cell", "B", "lower", 0},
	{"cpu.profiled_s", "s", "lower", 0},
	{"cpu.utilisation", "share", "higher", 0},
	{"runtime.alloc_mib", "MiB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"trace.overhead", "share", "lower", 0},
}, cpuShareMetrics()...)

// endToEndValues derives an untraced op's end-to-end metrics, with every
// time scaled to the reference host speed (see speed.go).
func endToEndValues(r *opResult) map[string]float64 {
	scale := referenceProbe.Seconds() / ((r.ProbeS[0] + r.ProbeS[1]) / 2)
	busy := (r.WallS - r.SetupS) * scale
	return map[string]float64{
		"wall_s":       r.WallS * scale,
		"setup_s":      r.SetupS * scale,
		"cpu_s":        r.CPUS * scale,
		"sim_speedup":  r.SimS / busy,
		"cells_per_s":  float64(r.Cells) / busy,
		"peak_rss_mib": r.PeakRSSMiB,
	}
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives a traced op's per-layer metrics (all but
// trace.overhead, which compares ops and is added by the parent).
func layerValues(run *opRun, in *instruments, prof *cpuProfile, mem0, mem1 *runtime.MemStats, cpuS float64) map[string]float64 {
	wall := run.end.Sub(run.start).Seconds()
	busy := wall - in.live.at.Sub(run.start).Seconds()
	t := &run.tally
	m := map[string]float64{
		"eventsim.events":                float64(t.c.KernelEvents),
		"experiment.ns_per_event":        ratio(busy*1e9, float64(t.c.KernelEvents)),
		"experiment.cell_p50_ms":         1000 * percentile(run.cellDurs, 50),
		"experiment.cell_p95_ms":         1000 * percentile(run.cellDurs, 95),
		"radio.transmissions":            float64(t.tx),
		"radio.collisions":               float64(t.coll),
		"radio.collision_ratio":          ratio(float64(t.coll), float64(t.tx)),
		"netserver.ingests":              float64(t.c.UplinkDeliveries),
		"netserver.duplicates":           float64(t.c.ServerDuplicates),
		"netserver.dup_ratio":            ratio(float64(t.c.ServerDuplicates), float64(t.c.UplinkDeliveries)),
		"routing.relay_hops":             float64(t.c.RelayHops),
		"routing.handover_success_ratio": ratio(float64(t.hoOK), float64(t.hoTry)),
		"lorawan.queue_drops":            float64(t.c.QueueDrops),
		"runstore.puts":                  float64(run.store.Puts),
		"runstore.gets":                  float64(run.store.Hits + run.store.Misses),
		"runstore.bytes_written":         float64(run.bytesWritten),
		"sweepfarm.retries":              float64(run.events.retries.Load()),
		"sweepfarm.expiries":             float64(run.events.expiries.Load()),
		"sweepfarm.duplicates":           float64(run.events.duplicates.Load()),
		"cpu.profiled_s":                 prof.totalSeconds(),
		"cpu.utilisation":                cpuS / (wall * float64(runtime.GOMAXPROCS(0))),
		"runtime.alloc_mib":              float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20),
		"runtime.gc_cycles":              float64(mem1.NumGC - mem0.NumGC),
	}
	if run.pool {
		var cells float64
		for _, d := range run.cellDurs {
			cells += d
		}
		m["experiment.pool.idle_share"] = 1 - cells/(workers*busy)
	}
	tileValues(m, in.spans, busy)
	if run.farm {
		farmValues(m, in.farm, float64(run.tally.cells), workers*busy)
	}
	total := prof.totalSeconds()
	for l, s := range prof.attribute() {
		m[l+".cpu_share"] = ratio(s, total)
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}

// tileValues attributes the tile engine's time: per window, each phase
// costs its slowest shard, and the other shards wait at the barrier for the
// difference. Coverage is the share of (wall − setup) the phases and the
// coordinator's merge account for.
func tileValues(m map[string]float64, r *spanRecorder, busy float64) {
	r.finish()
	if r.windows == 0 {
		return
	}
	var spanned, barrier float64
	for _, name := range []string{"kernel", "resolve", "deliver"} {
		p := r.phases[name]
		m["experiment.tiles."+name+"_share"] = p.slowest.Seconds() / busy
		spanned += p.slowest.Seconds()
		barrier += p.barrier.Seconds()
	}
	spanned += r.merge.Seconds()
	m["experiment.tiles.windows"] = float64(r.windows)
	m["experiment.tiles.import_fanout"] = float64(r.fanout) / float64(r.windows)
	m["experiment.tiles.merge_share"] = r.merge.Seconds() / busy
	m["experiment.tiles.barrier_wait_share"] = barrier / (workers * busy)
	m["experiment.tiles.coverage"] = spanned / busy
	m["experiment.tiles.unspanned_share"] = 1 - spanned/busy
}

// farmValues reports the farm's layers. Time shares are of the workers'
// time, workers × (wall − setup); complete_share contains the coordinator's
// read-back, verify and absorb, which the verify/absorb/get shares break out.
func farmValues(m map[string]float64, f *farmTrace, cells, workerTime float64) {
	client := f.clientClaim.seconds() + f.clientComplete.seconds() + f.clientHeartbeat.seconds()
	claims := float64(f.clientClaim.n.Load())
	accounted := f.clientClaim.seconds() + f.clientComplete.seconds() + f.runner.seconds() +
		f.workerStore.seconds() + f.pollWait.seconds()
	rx, tx := float64(f.bytesRx.Load()), float64(f.bytesTx.Load())
	for k, v := range map[string]float64{
		"runstore.put_share":               f.storePut.seconds() / workerTime,
		"runstore.get_share":               f.storeGet.seconds() / workerTime,
		"sweepfarm.claims":                 claims,
		"sweepfarm.claim_hit_ratio":        ratio(float64(f.claimHits.Load()), claims),
		"sweepfarm.heartbeats":             float64(f.clientHeartbeat.n.Load()),
		"sweepfarm.runner_share":           f.runner.seconds() / workerTime,
		"sweepfarm.claim_share":            f.clientClaim.seconds() / workerTime,
		"sweepfarm.complete_share":         f.clientComplete.seconds() / workerTime,
		"sweepfarm.verify_share":           f.verify.seconds() / workerTime,
		"sweepfarm.absorb_share":           f.absorb.seconds() / workerTime,
		"sweepfarm.poll_wait_share":        f.pollWait.seconds() / workerTime,
		"sweepfarm.worker_accounted_share": accounted / workerTime,
		"wire.calls":                       float64(f.clientClaim.n.Load() + f.clientComplete.n.Load() + f.clientHeartbeat.n.Load()),
		"wire.overhead_share":              (client - f.coordCalls.seconds()) / workerTime,
		"wire.bytes_tx":                    tx,
		"wire.bytes_rx":                    rx,
		"wire.bytes_per_cell":              (tx + rx) / cells,
	} {
		m[k] = v
	}
}
