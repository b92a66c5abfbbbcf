package experiment

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/sweepfarm"
)

// TestFarmSweepDuplicateAbsorb locks the farm adapter's exactly-once merge:
// absorbing every cell artefact a second time — as duplicate completions or
// a restarted coordinator's recovery replay would — changes neither the
// aggregates nor the rendered tables, and the duplicate never reaches
// OnResult.
func TestFarmSweepDuplicateAbsorb(t *testing.T) {
	base := sweepTestConfig()
	ref, err := ParallelSweep(base, Urban, SweepOptions{Workers: 4, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}

	fsweep := NewFarmSweep(base, Urban, 1)
	results := 0
	fsweep.OnResult = func(*Result) { results++ }
	cells := fsweep.Cells()
	artefacts := make([][]byte, len(cells))
	for i, c := range cells {
		data, err := fsweep.Run(c)
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, c.Label, err)
		}
		artefacts[i] = data
		if err := fsweep.Absorb(c, data); err != nil {
			t.Fatalf("absorb cell %d: %v", i, err)
		}
	}
	if results != len(cells) {
		t.Fatalf("OnResult fired %d times for %d cells", results, len(cells))
	}
	once := fsweep.Points()

	// Replay every artefact, in reverse arrival order for good measure.
	for i := len(cells) - 1; i >= 0; i-- {
		if err := fsweep.Absorb(cells[i], artefacts[i]); err != nil {
			t.Fatalf("duplicate absorb cell %d: %v", i, err)
		}
	}
	if results != len(cells) {
		t.Fatalf("duplicate absorption reached OnResult: %d calls for %d cells", results, len(cells))
	}
	twice := fsweep.Points()
	if !reflect.DeepEqual(once, twice) {
		t.Fatal("duplicate absorption changed the aggregates")
	}

	// And the farm's aggregates match the in-process pool's, cell for cell.
	if len(twice) != len(ref) {
		t.Fatalf("cell counts differ: farm %d vs pool %d", len(twice), len(ref))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Agg, twice[i].Agg) {
			t.Fatalf("cell %d aggregates differ:\n pool %+v\n farm %+v", i, ref[i].Agg, twice[i].Agg)
		}
	}
	for _, render := range []func([]AggregatePoint) string{
		Fig8AggTable, Fig9AggTable, Fig12AggTable, Fig13AggTable,
	} {
		if render(ref) != render(twice) {
			t.Fatal("rendered tables differ between pool and farm after duplicate absorption")
		}
	}
}

// TestFarmSweepKeylessDedupe covers the inline path: cells without a store
// key dedupe by index, so duplicates of keyless completions are discarded
// just the same.
func TestFarmSweepKeylessDedupe(t *testing.T) {
	base := sweepTestConfig()
	fsweep := NewFarmSweep(base, Urban, 1)
	results := 0
	fsweep.OnResult = func(*Result) { results++ }
	c := fsweep.Cells()[0]
	c.Key = "" // artefact travels inline: no content address to dedupe by
	data, err := fsweep.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fsweep.Absorb(c, data); err != nil {
			t.Fatal(err)
		}
	}
	if results != 1 {
		t.Fatalf("keyless cell absorbed %d times, want 1", results)
	}
}

// TestRenderFigureTablesQuarantinedRep0 renders a sweep the farm left with
// holes: at 10 gateways one scheme lost replication 0, and at 13 gateways
// every scheme did. The matched-coverage table shows "-" for the first and
// leaves out the 13-gateway row; the aggregate tables keep that row from
// the surviving replication.
func TestRenderFigureTablesQuarantinedRep0(t *testing.T) {
	points, err := ParallelSweep(sweepTestConfig(), Urban, SweepOptions{Workers: 4, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	cell := map[[2]int]*AggregatePoint{}
	for i := range points {
		p := &points[i]
		cell[[2]int{p.Gateways, int(p.Scheme)}] = p
		if (p.Gateways == 10 && p.Scheme == routing.SchemeRCAETX) || p.Gateways == 13 {
			p.Reps[0] = nil
			p.Agg = AggregateResults(p.Reps)
		}
	}
	var b strings.Builder
	RenderFigureTables(&b, points, 2, false)
	// row returns the trimmed cells of the row starting with prefix in the
	// table whose title line starts with title, or nil without that row.
	lines := strings.Split(b.String(), "\n")
	row := func(title, prefix string) []string {
		t.Helper()
		for i, heading := range lines {
			if !strings.HasPrefix(heading, title) {
				continue
			}
			for _, l := range lines[i+2:] {
				if l == "" {
					break
				}
				if strings.HasPrefix(l, prefix) {
					cols := strings.Split(l, "|")
					for j := range cols {
						cols[j] = strings.TrimSpace(cols[j])
					}
					return cols[1:]
				}
			}
			return nil
		}
		t.Fatalf("no table titled %q in:\n%s", title, b.String())
		return nil
	}

	const matched = "Fig 8 (matched coverage)"
	noRouting, robc := cell[[2]int{10, int(routing.SchemeNoRouting)}].Reps[0], cell[[2]int{10, int(routing.SchemeROBC)}].Reps[0]
	k := min(noRouting.Delivered, robc.Delivered)
	want := []string{
		fmt.Sprintf("%.1f", noRouting.MatchedDelayMean(k)), "-", fmt.Sprintf("%.1f", robc.MatchedDelayMean(k)),
	}
	if got := row(matched, " 10 ( 40)"); !reflect.DeepEqual(got, want) {
		t.Errorf("matched-coverage row at 10 gateways = %q, want %q", got, want)
	}
	if got := row(matched, " 13 ( 52)"); got != nil {
		t.Errorf("matched-coverage table kept the 13-gateway row without replication 0: %q", got)
	}
	for _, title := range []string{"Fig 8: mean", "Fig 9:", "Fig 12:", "Fig 13:"} {
		got := row(title, " 13 ( 52)")
		if len(got) != len(Schemes()) {
			t.Fatalf("%s lost the 13-gateway row: %q", title, got)
		}
		for i, c := range got {
			if c == "-" {
				t.Errorf("%s renders %v at 13 gateways as \"-\" although replication 1 arrived", title, Schemes()[i])
			}
		}
	}
}

// farmArtefacts runs the first n cells of a one-replication farm sweep and
// returns the sweep, its cells and those cells' artefacts.
func farmArtefacts(t testing.TB, n int) (*FarmSweep, []sweepfarm.Cell, [][]byte) {
	t.Helper()
	fsweep := NewFarmSweep(sweepTestConfig(), Urban, 1)
	cells := fsweep.Cells()
	artefacts := make([][]byte, n)
	for i := range artefacts {
		data, err := fsweep.Run(cells[i])
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, cells[i].Label, err)
		}
		artefacts[i] = data
	}
	return fsweep, cells, artefacts
}

// TestFarmSweepAbsorbReusesVerifyDecode: Absorb takes the Result the
// preceding Verify decoded for the same cell and bytes instead of decoding
// again, and a Verify of other bytes never leaks into the absorbed Result.
func TestFarmSweepAbsorbReusesVerifyDecode(t *testing.T) {
	// The first gateway count's cells can share their bytes (in this small
	// city, a forwarding scheme may never hand over); the next count's first
	// cell cannot.
	fsweep, cells, art := farmArtefacts(t, len(Schemes())+1)
	other := art[len(art)-1]
	if bytes.Equal(art[0], other) {
		t.Fatal("the test needs two distinct artefacts")
	}
	var absorbed []*Result
	fsweep.OnResult = func(r *Result) { absorbed = append(absorbed, r) }

	// Same cell, same bytes: the verified decode is absorbed as is.
	if err := fsweep.Verify(cells[0], art[0]); err != nil {
		t.Fatal(err)
	}
	verified := fsweep.verified.res
	if err := fsweep.Absorb(cells[0], art[0]); err != nil {
		t.Fatal(err)
	}
	if len(absorbed) != 1 || absorbed[0] != verified {
		t.Fatal("Absorb decoded again instead of taking Verify's Result")
	}

	// Verify(A) then Absorb(B) on one cell absorbs the decode of B. Any
	// artefact verifies for any cell: decodeResult checks the artefact's
	// own consistency only.
	c := cells[1]
	if err := fsweep.Verify(c, art[0]); err != nil {
		t.Fatal(err)
	}
	wrong := fsweep.verified.res
	if err := fsweep.Absorb(c, other); err != nil {
		t.Fatal(err)
	}
	want, err := decodeResult(other, fsweep.jobs[c.Index].cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(absorbed) != 2 || absorbed[1] == wrong || !reflect.DeepEqual(absorbed[1], want) {
		t.Fatal("Absorb(B) after Verify(A) did not absorb the decode of B")
	}
}

// TestFarmSweepAbsorbWithoutVerify: the coordinator's replay path may absorb
// with no Verify before it (or after a Verify of another cell); Absorb
// decodes for itself, and a second Absorb of the cell is still a no-op.
func TestFarmSweepAbsorbWithoutVerify(t *testing.T) {
	fsweep, cells, art := farmArtefacts(t, 2)
	var absorbed []*Result
	fsweep.OnResult = func(r *Result) { absorbed = append(absorbed, r) }

	if err := fsweep.Absorb(cells[0], art[0]); err != nil {
		t.Fatal(err)
	}
	if err := fsweep.Verify(cells[0], art[0]); err != nil {
		t.Fatal(err)
	}
	if err := fsweep.Absorb(cells[1], art[1]); err != nil {
		t.Fatal(err)
	}
	if err := fsweep.Absorb(cells[0], art[0]); err != nil {
		t.Fatal(err)
	}
	if len(absorbed) != 2 {
		t.Fatalf("OnResult fired %d times for 2 cells", len(absorbed))
	}
	for i, r := range absorbed {
		want, err := decodeResult(art[i], fsweep.jobs[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("cell %d absorbed a Result other than its artefact's", i)
		}
	}
}

// BenchmarkFarmCell times the farm's per-cell protocol through an
// in-process coordinator, one worker and a fresh temporary store: lease,
// publish, store read-back, Verify and Absorb. Every cell's runner returns
// one pre-encoded quick-cell artefact, which verifies for every cell, so no
// simulation is timed.
func BenchmarkFarmCell(b *testing.B) {
	withoutSortChecks(b)
	quick := NewFarmSweep(QuickConfig(), Urban, 1)
	artefact, err := quick.Run(quick.Cells()[0])
	if err != nil {
		b.Fatal(err)
	}
	run := func(sweepfarm.Cell) ([]byte, error) { return artefact, nil }
	root := b.TempDir()
	cells := 0
	b.ReportAllocs()
	for b.Loop() {
		dir, err := os.MkdirTemp(root, "store-")
		if err != nil {
			b.Fatal(err)
		}
		store, err := runstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		fsweep := NewFarmSweep(QuickConfig(), Urban, 1)
		grid := fsweep.Cells()
		farm, err := sweepfarm.New(grid, run, store, nil, sweepfarm.FarmConfig{
			Workers: 1, Verify: fsweep.Verify, Absorb: fsweep.Absorb})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := farm.Run()
		if err != nil || rep.Done != len(grid) {
			b.Fatalf("farm: %d of %d cells done: %v", rep.Done, len(grid), err)
		}
		cells += len(grid)
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}
