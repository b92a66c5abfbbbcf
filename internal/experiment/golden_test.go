package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files lock the paper-default simulation's bytes: the same
// Report() text and figure-table numbers for the same seed. A change that
// moves them must be deliberate; regenerate with `go test -run Golden -update`
// and review the diff.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenQuickReports locks Result.Report() for QuickConfig at seed 1
// across all three schemes, with every Config field at its default:
// determinism or formatting regressions fail here before they corrupt a
// figure. It shares report_quick_shards1.golden with TestShardGoldenReport,
// so the default configuration must stay the one-tile run.
func TestGoldenQuickReports(t *testing.T) {
	var rep string
	for _, scheme := range Schemes() {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = scheme
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep += res.Report()
	}
	goldenCompare(t, "report_quick_shards1.golden", rep)
}

// TestGoldenFigTables locks expsweep's figure-sweep stdout block for a
// QuickConfig sweep subset (gateway counts 10 and 15, all schemes, one
// replication) at seed 1, followed by each cell's Report(), which carries
// the per-run delay stderr and max hops the aggregate tables do not show.
func TestGoldenFigTables(t *testing.T) {
	cfg := QuickConfig()
	cfg.Seed = 1
	goldenCompare(t, "fig_tables_quick.golden", oneRepFigTables(t, cfg, []int{10, 15}))
}

// oneRepFigTables runs base at every gateway count in gws × scheme as
// one-replication sweep cells, in figure order, and returns
// RenderFigureTables' block followed by each cell's Report().
func oneRepFigTables(t *testing.T, base Config, gws []int) string {
	t.Helper()
	var points []AggregatePoint
	var reports strings.Builder
	for _, gw := range gws {
		for _, scheme := range Schemes() {
			cfg := base
			cfg.Scheme = scheme
			cfg.NumGateways = gw
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reps := []*Result{res}
			points = append(points, AggregatePoint{
				Environment: cfg.Environment, Scheme: scheme, Gateways: gw,
				Seeds: []uint64{cfg.Seed}, Reps: reps, Agg: AggregateResults(reps),
			})
			reports.WriteString(res.Report())
		}
	}
	var b strings.Builder
	RenderFigureTables(&b, points, 1, false)
	b.WriteString(reports.String())
	return b.String()
}

// TestGoldenOutageTable locks the PR 2 resilience figure the same way the
// Fig 8/9/12/13 tables are locked: the full OutageGrid for QuickConfig
// at seed 1, urban. Disruption-compilation or table-rendering drift fails
// here before it corrupts the resilience artefact.
func TestGoldenOutageTable(t *testing.T) {
	cfg := QuickConfig()
	cfg.Seed = 1
	points, err := OutageGrid.Sweep(cfg, Urban, SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "outage_table_quick.golden", OutageTable(points))
}
