package obs

import (
	"fmt"
	"html/template"
	"net/http"
	"time"
)

// The dashboard is one server-rendered page, refreshed by the browser every
// two seconds — html/template over live state, no scripts, no external
// assets. Forms follow the data's job: stat tiles for the headline numbers,
// a meter for sweep progress, per-shard stacked bars (three fixed
// categorical hues, one per engine phase) with every value also printed in
// the adjacent table so color never carries alone, and single-hue bars for
// the SF distribution. Light and dark are both explicit palettes selected
// by prefers-color-scheme, validated against their surfaces.

type dashKV struct {
	Name  string
	Value uint64
}

type dashSF struct {
	SF    int
	Count uint64
	Pct   float64 // bar width, % of the largest SF count
}

type dashShard struct {
	Shard                    int
	Kernel, Resolve, Deliver string
	KPct, RPct, DPct         float64 // stacked widths, % of row total
}

type dashPhase struct {
	Name             string
	Shard            int
	Count            uint64
	Total, Mean, Max string
}

type dashSpan struct {
	Name  string
	Shard int
	Dur   string
	Sim   string
	Attr  int64
	Label string
}

type dashData struct {
	Title         string
	Live          int
	Sweep         SweepStatus
	HasSweep      bool
	PctDone       float64
	P50, P95, P99 string
	Elapsed       string
	Counters      []dashKV
	SF            []dashSF
	HasSF         bool
	Shards        []dashShard
	Phases        []dashPhase
	Recent        []dashSpan
	Evicted       uint64
}

// fmtSeconds renders a duration-in-seconds with a unit that keeps 3
// significant figures readable (the axis-label rule: no 0.00012 s).
func fmtSeconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.3g µs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.3g ms", v*1e3)
	case v < 120:
		return fmt.Sprintf("%.3g s", v)
	default:
		return time.Duration(v * float64(time.Second)).Round(time.Second).String()
	}
}

func (s *Server) dashData() dashData {
	snap := s.Registry.Snapshot()
	st := s.Sweep.Status()
	d := dashData{
		Title:    s.Title,
		Live:     s.Registry.LiveRuns(),
		Sweep:    st,
		HasSweep: st.Total > 0 || st.Active,
		P50:      fmtSeconds(st.P50),
		P95:      fmtSeconds(st.P95),
		P99:      fmtSeconds(st.P99),
		Elapsed:  st.Elapsed.Round(time.Second).String(),
		Evicted:  s.Flight.Dropped(),
	}
	if d.Title == "" {
		d.Title = "mlorass"
	}
	if st.Total > 0 {
		d.PctDone = 100 * float64(st.Done) / float64(st.Total)
	}

	c := snap.Counters
	d.Counters = []dashKV{
		{"messages generated", c.Generated},
		{"frames on air", c.FramesOnAir},
		{"uplink deliveries", c.UplinkDeliveries},
		{"server fresh", c.ServerFresh},
		{"server duplicates", c.ServerDuplicates},
		{"relay hops", c.RelayHops},
		{"handover attempts", c.HandoverAttempts},
		{"handover successes", c.HandoverSuccesses},
		{"handover missed msgs", c.HandoverMissedMsgs},
		{"queue drops", c.QueueDrops},
		{"downlinks", c.Downlinks},
		{"downlink deliveries", c.DownlinkDeliveries},
		{"ack timeouts", c.AckTimeouts},
		{"retransmissions", c.Retransmissions},
		{"ADR applied", c.ADRApplied},
	}
	var sfMax uint64
	for _, n := range snap.SF {
		if n > sfMax {
			sfMax = n
		}
	}
	for i, n := range snap.SF {
		row := dashSF{SF: i + 7, Count: n}
		if sfMax > 0 {
			row.Pct = 100 * float64(n) / float64(sfMax)
		}
		d.SF = append(d.SF, row)
	}
	d.HasSF = sfMax > 0

	totals := s.Flight.PhaseTotals()
	perShard := map[int]*dashShard{}
	var shardOrder []int
	for _, t := range totals {
		mean := time.Duration(0)
		if t.Count > 0 {
			mean = t.Total / time.Duration(t.Count)
		}
		d.Phases = append(d.Phases, dashPhase{
			Name: t.Name, Shard: t.Shard, Count: t.Count,
			Total: fmtSeconds(t.Total.Seconds()),
			Mean:  fmtSeconds(mean.Seconds()),
			Max:   fmtSeconds(t.Max.Seconds()),
		})
		if t.Name == "kernel" || t.Name == "resolve" || t.Name == "deliver" {
			row := perShard[t.Shard]
			if row == nil {
				row = &dashShard{Shard: t.Shard}
				perShard[t.Shard] = row
				shardOrder = append(shardOrder, t.Shard)
			}
			switch t.Name {
			case "kernel":
				row.Kernel = fmtSeconds(t.Total.Seconds())
				row.KPct = t.Total.Seconds()
			case "resolve":
				row.Resolve = fmtSeconds(t.Total.Seconds())
				row.RPct = t.Total.Seconds()
			case "deliver":
				row.Deliver = fmtSeconds(t.Total.Seconds())
				row.DPct = t.Total.Seconds()
			}
		}
	}
	for _, si := range shardOrder {
		row := perShard[si]
		if sum := row.KPct + row.RPct + row.DPct; sum > 0 {
			row.KPct, row.RPct, row.DPct = 100*row.KPct/sum, 100*row.RPct/sum, 100*row.DPct/sum
		}
		d.Shards = append(d.Shards, *row)
	}

	spans := s.Flight.Spans(0)
	for i := len(spans) - 1; i >= 0 && len(d.Recent) < 12; i-- {
		sp := spans[i]
		d.Recent = append(d.Recent, dashSpan{
			Name:  sp.Name,
			Shard: sp.Shard,
			Dur:   fmtSeconds(float64(sp.DurNS) / 1e9),
			Sim:   time.Duration(sp.SimNS).Round(time.Millisecond).String(),
			Attr:  sp.Attr,
			Label: sp.Label,
		})
	}
	return d
}

func (s *Server) dashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashTmpl.Execute(w, s.dashData())
}

var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html lang="en"><head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}} · mlorass observability</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --kernel: #2a78d6; --resolve: #eb6834; --deliver: #1baf7a;
  --seq: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --kernel: #3987e5; --resolve: #d95926; --deliver: #199e70;
    --seq: #3987e5;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 20px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 17px; margin: 0 0 2px; }
.sub { color: var(--ink-2); font-size: 12px; margin-bottom: 16px; }
.card { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin-bottom: 14px; }
.card h2 { font-size: 12px; font-weight: 600; letter-spacing: .04em;
  text-transform: uppercase; color: var(--ink-2); margin: 0 0 10px; }
.tiles { display: flex; flex-wrap: wrap; gap: 24px; }
.tile .v { font-size: 26px; font-weight: 600; }
.tile .l { font-size: 12px; color: var(--ink-2); }
.meter { height: 8px; background: var(--grid); border-radius: 4px;
  overflow: hidden; margin-top: 12px; }
.meter > span { display: block; height: 100%; background: var(--seq);
  border-radius: 4px; }
table { border-collapse: collapse; width: 100%;
  font-variant-numeric: tabular-nums; }
th { text-align: left; font-weight: 500; color: var(--ink-muted);
  font-size: 12px; border-bottom: 1px solid var(--baseline); padding: 3px 12px 3px 0; }
td { padding: 3px 12px 3px 0; border-bottom: 1px solid var(--grid); }
td.n, th.n { text-align: right; }
.stack { display: flex; gap: 2px; height: 12px; min-width: 160px; }
.stack > span { border-radius: 3px; }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--ink-2);
  margin-bottom: 8px; }
.legend i { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
.bar { display: inline-block; height: 10px; background: var(--seq);
  border-radius: 3px; vertical-align: middle; }
.muted { color: var(--ink-muted); }
a { color: var(--ink-2); }
</style></head>
<body>
<h1>{{.Title}}</h1>
<div class="sub">live observability · {{.Live}} run(s) attached · refreshes every 2 s ·
<a href="/metrics">metrics</a> · <a href="/spans">spans</a> · <a href="/debug/pprof/">pprof</a></div>

{{if .HasSweep}}
<div class="card">
<h2>Sweep {{.Sweep.Label}}{{if not .Sweep.Active}} (finished){{end}}</h2>
<div class="tiles">
  <div class="tile"><div class="v">{{.Sweep.Done}} / {{.Sweep.Total}}</div><div class="l">cells done</div></div>
  <div class="tile"><div class="v">{{.Sweep.Cached}}</div><div class="l">cached</div></div>
  <div class="tile"><div class="v">{{.Sweep.Running}}</div><div class="l">running</div></div>
  <div class="tile"><div class="v">{{.Elapsed}}</div><div class="l">elapsed</div></div>
  <div class="tile"><div class="v">{{.P50}}</div><div class="l">delay p50</div></div>
  <div class="tile"><div class="v">{{.P95}}</div><div class="l">delay p95</div></div>
  <div class="tile"><div class="v">{{.P99}}</div><div class="l">delay p99</div></div>
</div>
{{if .Sweep.Farm.Active}}
<div class="tiles">
  <div class="tile"><div class="v">{{.Sweep.Farm.Retries}}</div><div class="l">retries</div></div>
  <div class="tile"><div class="v">{{.Sweep.Farm.Expired}}</div><div class="l">lease expiries</div></div>
  <div class="tile"><div class="v">{{.Sweep.Farm.Quarantined}}</div><div class="l">quarantined</div></div>
  <div class="tile"><div class="v">{{.Sweep.Farm.Duplicates}}</div><div class="l">dup completions</div></div>
  <div class="tile"><div class="v">{{.Sweep.Farm.Crashes}}</div><div class="l">worker crashes</div></div>
  {{range .Sweep.Farm.Workers}}<div class="tile"><div class="v">{{.Leases}}</div><div class="l">leases {{.Worker}}</div></div>
  {{end}}
</div>
{{end}}
<div class="meter"><span style="width: {{printf "%.1f" .PctDone}}%"></span></div>
</div>
{{end}}

{{if .Shards}}
<div class="card">
<h2>Engine phase breakdown</h2>
<div class="legend">
  <span><i style="background: var(--kernel)"></i>kernel</span>
  <span><i style="background: var(--resolve)"></i>resolve</span>
  <span><i style="background: var(--deliver)"></i>deliver</span>
</div>
<table>
<tr><th>shard</th><th>share of phase time</th><th class="n">kernel</th><th class="n">resolve</th><th class="n">deliver</th></tr>
{{range .Shards}}
<tr><td>{{.Shard}}</td>
<td><div class="stack">
  <span style="background: var(--kernel); width: {{printf "%.1f" .KPct}}%"></span>
  <span style="background: var(--resolve); width: {{printf "%.1f" .RPct}}%"></span>
  <span style="background: var(--deliver); width: {{printf "%.1f" .DPct}}%"></span>
</div></td>
<td class="n">{{.Kernel}}</td><td class="n">{{.Resolve}}</td><td class="n">{{.Deliver}}</td></tr>
{{end}}
</table>
</div>
{{end}}

{{if .Phases}}
<div class="card">
<h2>Phase totals{{if .Evicted}} <span class="muted">({{.Evicted}} spans evicted from ring)</span>{{end}}</h2>
<table>
<tr><th>phase</th><th class="n">shard</th><th class="n">spans</th><th class="n">total</th><th class="n">mean</th><th class="n">max</th></tr>
{{range .Phases}}
<tr><td>{{.Name}}</td><td class="n">{{.Shard}}</td><td class="n">{{.Count}}</td>
<td class="n">{{.Total}}</td><td class="n">{{.Mean}}</td><td class="n">{{.Max}}</td></tr>
{{end}}
</table>
</div>
{{end}}

<div class="card">
<h2>Telemetry counters</h2>
<table>
{{range .Counters}}<tr><td>{{.Name}}</td><td class="n">{{.Value}}</td></tr>
{{end}}
</table>
</div>

{{if .HasSF}}
<div class="card">
<h2>Uplink spreading factors</h2>
<table>
{{range .SF}}<tr><td>SF{{.SF}}</td>
<td><span class="bar" style="width: {{printf "%.1f" .Pct}}%; max-width: 240px; min-width: {{if .Count}}2px{{else}}0{{end}}"></span></td>
<td class="n">{{.Count}}</td></tr>
{{end}}
</table>
</div>
{{end}}

{{if .Recent}}
<div class="card">
<h2>Recent spans <span class="muted">(newest first)</span></h2>
<table>
<tr><th>phase</th><th class="n">shard</th><th class="n">wall</th><th class="n">sim clock</th><th class="n">attr</th><th>label</th></tr>
{{range .Recent}}
<tr><td>{{.Name}}</td><td class="n">{{.Shard}}</td><td class="n">{{.Dur}}</td>
<td class="n">{{.Sim}}</td><td class="n">{{.Attr}}</td><td>{{.Label}}</td></tr>
{{end}}
</table>
</div>
{{end}}
</body></html>
`))
