package experiment

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"mlorass/internal/routing"
	"mlorass/internal/sweepfarm"
)

// FarmSweep adapts one sweep grid to the sweepfarm protocol: it enumerates
// the grid's jobs as sweepfarm cells (keyed by the same content address the
// run store uses), computes cells as encoded artefacts, verifies artefacts
// with the store decoder's integrity checks, and merges verified artefacts
// into AggregatePoints — idempotently, deduped by store key, so a cell result
// that arrives twice (duplicate completion, coordinator restart replaying
// recovery) changes nothing. expsweep -serve/-connect build one on each side
// of the wire from the same flags.
type FarmSweep struct {
	cells []AggregatePoint
	jobs  []sweepJob

	// OnResult, when non-nil, observes each newly absorbed replication's
	// Result (duplicates never reach it). Called synchronously from Absorb —
	// which the farm coordinator runs under its lock — immediately before
	// the coordinator emits the cell's Done event, so an event observer can
	// pair the two.
	OnResult func(*Result)

	mu sync.Mutex
	// absorbed dedupes the merge by store key (and by index for keyless
	// cells): the exactly-once guard on this side of the protocol.
	absorbed map[string]bool
	slotted  []bool
	// verified is the last Verify's decode, handed to the Absorb that the
	// coordinator calls next for the same cell and bytes.
	verified verifiedArtifact
}

// verifiedArtifact is one artefact Verify decoded: the cell index, the
// bytes and their Result.
type verifiedArtifact struct {
	index int
	data  []byte
	res   *Result
}

// NewFarmSweep lays out the figure grid for env: every scheme × gateway
// count, replicated reps times with seeds derived via RepSeed.
func NewFarmSweep(base Config, env Environment, reps int) *FarmSweep {
	return FigureGrid.Farm(base, env, reps)
}

// Farm lays out grid g for env as a FarmSweep: the same jobs, labels and
// store keys as g.Sweep runs in one process.
func (g Grid) Farm(base Config, env Environment, reps int) *FarmSweep {
	cells, jobs := layoutSweep(g, base, env, reps)
	return &FarmSweep{
		cells:    cells,
		jobs:     jobs,
		absorbed: map[string]bool{},
		slotted:  make([]bool, len(jobs)),
	}
}

// Cells enumerates the sweep as sweepfarm cells, one per (cell, replication)
// job, in table order and labelled as the job is. Cell keys are the run
// store's content addresses, so a farm over the same store directory as a
// previous expsweep -store run reuses its artefacts; a config without a
// canonical byte form (an explicit Dataset) yields keyless cells whose
// artefacts travel inline.
func (f *FarmSweep) Cells() []sweepfarm.Cell {
	out := make([]sweepfarm.Cell, len(f.jobs))
	for i, j := range f.jobs {
		key, _ := cacheKey(j.cfg)
		out[i] = sweepfarm.Cell{Index: i, Key: key, Label: j.label}
	}
	return out
}

// Run computes one cell: a full simulation encoded as a store artefact.
// Deterministic in the cell (the config embeds the derived seed), which is
// what makes the farm's at-least-once execution safe.
func (f *FarmSweep) Run(c sweepfarm.Cell) ([]byte, error) {
	j := f.jobs[c.Index]
	res, err := runIn(j.cfg, j.cities)
	if err != nil {
		return nil, err
	}
	return encodeResult(res)
}

// Verify rejects torn, truncated or stale-schema artefacts using the same
// structural integrity checks the run store's loader applies. It keeps the
// decode of an artefact that passes for the Absorb that follows it.
func (f *FarmSweep) Verify(c sweepfarm.Cell, data []byte) error {
	res, err := decodeResult(data, f.jobs[c.Index].cfg)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.verified = verifiedArtifact{index: c.Index, data: data, res: res}
	f.mu.Unlock()
	return nil
}

// Absorb merges one verified artefact into the sweep's aggregate state.
// Absorbing the same cell twice is a no-op: results are deduped by store key
// before the merge (by index for keyless cells), so duplicate completions
// and restart replays cannot double-count a replication. An artefact the
// last Verify call decoded (same cell, equal bytes) is not decoded again.
func (f *FarmSweep) Absorb(c sweepfarm.Cell, data []byte) error {
	f.mu.Lock()
	v := f.verified
	f.verified = verifiedArtifact{}
	f.mu.Unlock()
	res := v.res
	if res == nil || v.index != c.Index || !bytes.Equal(v.data, data) {
		var err error
		if res, err = decodeResult(data, f.jobs[c.Index].cfg); err != nil {
			return err
		}
	}
	dedupe := c.Key
	if dedupe == "" {
		dedupe = fmt.Sprintf("inline:%d", c.Index)
	}
	f.mu.Lock()
	if f.absorbed[dedupe] {
		f.mu.Unlock()
		return nil
	}
	f.absorbed[dedupe] = true
	j := f.jobs[c.Index]
	f.cells[j.cell].Reps[j.rep] = res
	f.slotted[c.Index] = true
	f.mu.Unlock()
	if f.OnResult != nil {
		f.OnResult(res)
	}
	return nil
}

// Points collapses the absorbed results into the sweep's AggregatePoints.
// Replications lost to quarantine stay nil and are skipped by the
// aggregation — the tables show what was measured, and the farm's gap
// report names what was not.
func (f *FarmSweep) Points() []AggregatePoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]AggregatePoint, len(f.cells))
	copy(out, f.cells)
	for i := range out {
		out[i].Agg = AggregateResults(out[i].Reps)
	}
	return out
}

// Render writes grid g's complete stdout block for one environment's points:
// the figure tables through RenderFigureTables (reps and percentiles apply
// to them alone), or the outage or ADR grid's one table.
func (g Grid) Render(w io.Writer, points []AggregatePoint, reps int, percentiles bool) {
	switch g {
	case OutageGrid:
		fmt.Fprintln(w, OutageTable(points))
	case ADRGrid:
		fmt.Fprintln(w, ADRTable(points))
	default:
		RenderFigureTables(w, points, reps, percentiles)
	}
}

// RenderFigureTables writes the figure sweep's complete stdout block for one
// environment: the Fig 8/9/12/13 aggregate tables, the optional pooled
// percentile table, the matched-coverage table over replication 0, and the
// overhead-ratio lines. expsweep prints through this one function (by way
// of Grid.Render) both after a pool sweep and as a -serve coordinator,
// which is what makes the two outputs byte-identical by construction
// rather than by test alone.
// A cell whose replication 0 was quarantined under the farm renders "-" in
// the matched-coverage table, and a gateway count with no replication 0 at
// all is left out of it; the aggregate tables keep every row and aggregate
// whichever replications arrived.
func RenderFigureTables(w io.Writer, points []AggregatePoint, reps int, percentiles bool) {
	fmt.Fprintln(w, Fig8AggTable(points))
	if percentiles {
		fmt.Fprintln(w, Fig8PercentilesAggTable(points))
	}
	if reps > 1 {
		fmt.Fprintln(w, "(the matched-coverage table below uses replication 0 only: it needs raw per-delivery samples, not aggregates)")
	}
	fmt.Fprintln(w, Fig8MatchedTable(points))
	fmt.Fprintln(w, Fig9AggTable(points))
	fmt.Fprintln(w, Fig12AggTable(points))
	fmt.Fprintln(w, Fig13AggTable(points))
	fmt.Fprintln(w, "overhead ratios vs NoRouting (paper: 1.6-2.2x):")
	ratios := OverheadRatiosAgg(points)
	for _, gw := range GatewaySweep() {
		if m, ok := ratios[gw]; ok {
			fmt.Fprintf(w, "  gw=%3d  RCA-ETX %.2fx  ROBC %.2fx\n",
				gw, m[routing.SchemeRCAETX], m[routing.SchemeROBC])
		}
	}
	fmt.Fprintln(w)
}
