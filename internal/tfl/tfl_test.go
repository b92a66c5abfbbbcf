package tfl

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func genSmall(t *testing.T, seed uint64) *Dataset {
	t.Helper()
	ds, err := Generate(DefaultGenConfig(seed, 10, 20*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, 42)
	b := genSmall(t, 42)
	if len(a.Routes) != len(b.Routes) || len(a.Trips) != len(b.Trips) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a.Routes), len(a.Trips), len(b.Routes), len(b.Trips))
	}
	for i := range a.Trips {
		if a.Trips[i] != b.Trips[i] {
			t.Fatalf("trip %d differs: %+v vs %+v", i, a.Trips[i], b.Trips[i])
		}
	}
	for i := range a.Routes {
		if a.Routes[i].SpeedMPS != b.Routes[i].SpeedMPS || len(a.Routes[i].Points) != len(b.Routes[i].Points) {
			t.Fatalf("route %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := genSmall(t, 1)
	b := genSmall(t, 2)
	if len(a.Routes) > 0 && len(b.Routes) > 0 &&
		a.Routes[0].SpeedMPS == b.Routes[0].SpeedMPS &&
		a.Routes[0].Points[0] == b.Routes[0].Points[0] {
		t.Fatal("different seeds produced identical first route")
	}
}

func TestGenerateValidation(t *testing.T) {
	base := DefaultGenConfig(1, 5, 10*time.Minute)
	muts := []func(*GenConfig){
		func(c *GenConfig) { c.NumRoutes = 0 },
		func(c *GenConfig) { c.PeakHeadway = 0 },
		func(c *GenConfig) { c.RouteMinM = 0 },
		func(c *GenConfig) { c.RouteMaxM = c.RouteMinM - 1 },
		func(c *GenConfig) { c.SpeedMinMPS = 0 },
		func(c *GenConfig) { c.SpeedMaxMPS = 1 },
		func(c *GenConfig) { c.Area.Max = c.Area.Min },
	}
	for i, mut := range muts {
		cfg := base
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRoutesInsideAreaWithValidSpeeds(t *testing.T) {
	ds := genSmall(t, 7)
	cfg := DefaultGenConfig(7, 10, 20*time.Minute)
	for _, r := range ds.Routes {
		if r.SpeedMPS < cfg.SpeedMinMPS || r.SpeedMPS > cfg.SpeedMaxMPS {
			t.Fatalf("route %s speed %v outside bounds", r.ID, r.SpeedMPS)
		}
		pl, err := r.Polyline()
		if err != nil {
			t.Fatalf("route %s: %v", r.ID, err)
		}
		if pl.Length() < cfg.RouteMinM {
			t.Fatalf("route %s length %v below minimum", r.ID, pl.Length())
		}
		for _, p := range r.Points {
			if !ds.Area.Contains(p) {
				t.Fatalf("route %s point %v outside area", r.ID, p)
			}
		}
	}
}

func TestTripsWithinDayAndReferencingRoutes(t *testing.T) {
	ds := genSmall(t, 9)
	routes := map[string]bool{}
	for _, r := range ds.Routes {
		routes[r.ID] = true
	}
	ids := map[int]bool{}
	for _, tr := range ds.Trips {
		if ids[tr.ID] {
			t.Fatalf("duplicate trip ID %d", tr.ID)
		}
		ids[tr.ID] = true
		if tr.Start < 0 || tr.Start >= Day+time.Hour {
			t.Fatalf("trip %d starts at %v", tr.ID, tr.Start)
		}
		if tr.Duration <= 0 {
			t.Fatalf("trip %d has non-positive duration", tr.ID)
		}
		if !routes[tr.RouteID] {
			t.Fatalf("trip %d references unknown route %s", tr.ID, tr.RouteID)
		}
	}
}

func TestDiurnalActiveBusShape(t *testing.T) {
	// Fig. 7a property: daytime plateau well above the overnight trough.
	ds, err := Generate(DefaultGenConfig(3, 25, 15*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	counts := ds.ActiveBuses(time.Hour)
	if len(counts) != 24 {
		t.Fatalf("hourly bins = %d", len(counts))
	}
	night := avgInts(counts[1:5]) // 01:00-05:00
	day := avgInts(counts[10:17]) // 10:00-17:00
	if day < 3*night {
		t.Fatalf("daytime %v not >= 3x night %v: diurnal shape lost (%v)", day, night, counts)
	}
	if day == 0 {
		t.Fatal("no daytime buses")
	}
}

func TestTripDurationRange(t *testing.T) {
	// Fig. 7b property: shifts span from tens of minutes to many hours,
	// hard-clamped to [30 min, 10 h], with a broad middle mass.
	ds := genSmall(t, 5)
	durations := ds.TripDurations()
	if len(durations) == 0 {
		t.Fatal("no trips generated")
	}
	var mid int
	for _, d := range durations {
		if d < 30*time.Minute || d > 10*time.Hour {
			t.Fatalf("shift duration %v outside [30m, 10h]", d)
		}
		if d >= time.Hour && d <= 6*time.Hour {
			mid++
		}
	}
	if mid < len(durations)/2 {
		t.Fatalf("only %d/%d shifts between 1 h and 6 h; distribution off", mid, len(durations))
	}
}

func TestActiveBusesEdgeCases(t *testing.T) {
	ds := &Dataset{Trips: []Trip{{ID: 1, Start: 0, Duration: time.Hour}}}
	if got := ds.ActiveBuses(0); got != nil {
		t.Fatal("zero bin accepted")
	}
	counts := ds.ActiveBuses(30 * time.Minute)
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("counts = %v", counts[:3])
	}
}

func TestTripActiveAt(t *testing.T) {
	tr := Trip{Start: time.Hour, Duration: time.Hour}
	if tr.ActiveAt(59 * time.Minute) {
		t.Fatal("active before start")
	}
	if !tr.ActiveAt(time.Hour) || !tr.ActiveAt(90*time.Minute) {
		t.Fatal("inactive during trip")
	}
	if tr.ActiveAt(2 * time.Hour) {
		t.Fatal("active at end instant")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := genSmall(t, 11)
	var buf bytes.Buffer
	if err := Encode(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Area != ds.Area {
		t.Fatalf("area: %+v vs %+v", got.Area, ds.Area)
	}
	if len(got.Routes) != len(ds.Routes) || len(got.Trips) != len(ds.Trips) {
		t.Fatalf("sizes differ after round trip")
	}
	for i := range ds.Routes {
		a, b := ds.Routes[i], got.Routes[i]
		if a.ID != b.ID || a.SpeedMPS != b.SpeedMPS || len(a.Points) != len(b.Points) {
			t.Fatalf("route %d mismatch", i)
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				t.Fatalf("route %d point %d mismatch", i, j)
			}
		}
	}
	for i := range ds.Trips {
		// Durations round-trip through seconds; compare at 1 ms.
		a, b := ds.Trips[i], got.Trips[i]
		if a.ID != b.ID || a.RouteID != b.RouteID || a.Reverse != b.Reverse {
			t.Fatalf("trip %d mismatch: %+v vs %+v", i, a, b)
		}
		if dd := a.Start - b.Start; dd > time.Millisecond || dd < -time.Millisecond {
			t.Fatalf("trip %d start drift %v", i, dd)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"area,1,2,3\n",           // wrong arity
		"route,R1,abc,0:0;1:1\n", // bad speed
		"route,R1,5,0:0;11\n",    // bad point
		"trip,x,R1,0,10,0\n",     // bad id
		"trip,1,R1,x,10,0\n",     // bad start
		"trip,1,R1,0,x,0\n",      // bad duration
		"bogus,1\n",              // unknown kind
		"trip,1,R1,0,10\n",       // wrong arity
	}
	for i, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestDecodeEmpty(t *testing.T) {
	ds, err := Decode(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Routes) != 0 || len(ds.Trips) != 0 {
		t.Fatal("empty input produced records")
	}
}

func TestDefaultHourlyWeightShape(t *testing.T) {
	w := DefaultHourlyWeight()
	if w[8] != 1.0 && w[16] != 1.0 {
		t.Fatal("no peak hour at weight 1.0")
	}
	for h, v := range w {
		if v <= 0 || v > 1 {
			t.Fatalf("hour %d weight %v outside (0,1]", h, v)
		}
	}
	if w[3] > 0.2 {
		t.Fatalf("night weight %v too high", w[3])
	}
}

func avgInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultGenConfig(1, 25, 15*time.Minute)
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
