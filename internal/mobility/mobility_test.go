package mobility

import (
	"testing"
	"testing/quick"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/tfl"
)

// straightDataset builds a 10 km straight route at 2.78 m/s with one forward
// and one reverse shift, each starting at 1 h and lasting 1 h — almost
// exactly one end-to-end leg, so positions match the pre-shift semantics.
func straightDataset() *tfl.Dataset {
	return &tfl.Dataset{
		Area: geo.Square(20000),
		Routes: []tfl.Route{{
			ID:       "R000",
			Points:   []geo.Point{{X: 0, Y: 0}, {X: 10000, Y: 0}},
			SpeedMPS: 2.78,
		}},
		Trips: []tfl.Trip{
			{ID: 0, RouteID: "R000", Start: time.Hour, Duration: time.Hour},
			{ID: 1, RouteID: "R000", Start: time.Hour, Duration: time.Hour, Reverse: true},
		},
	}
}

func TestNewFleetValidation(t *testing.T) {
	ds := straightDataset()
	ds.Trips[0].RouteID = "missing"
	if _, err := NewFleet(ds); err == nil {
		t.Fatal("unknown route accepted")
	}
	ds = straightDataset()
	ds.Trips[0].Duration = 0
	if _, err := NewFleet(ds); err == nil {
		t.Fatal("zero duration accepted")
	}
	ds = straightDataset()
	ds.Routes[0].Points = ds.Routes[0].Points[:1]
	if _, err := NewFleet(ds); err == nil {
		t.Fatal("degenerate route accepted")
	}
}

func TestPositionForwardTrip(t *testing.T) {
	f, err := NewFleet(straightDataset())
	if err != nil {
		t.Fatal(err)
	}
	bus := f.Bus(0)

	if _, ok := bus.Position(30 * time.Minute); ok {
		t.Fatal("position available before trip start")
	}
	p, ok := bus.Position(time.Hour)
	if !ok || p != (geo.Point{X: 0, Y: 0}) {
		t.Fatalf("start position = %v ok=%v", p, ok)
	}
	p, ok = bus.Position(90 * time.Minute)
	if !ok {
		t.Fatal("inactive mid-trip")
	}
	if p.X < 4990 || p.X > 5010 || p.Y != 0 {
		t.Fatalf("midpoint = %v, want ~(5000,0)", p)
	}
	if _, ok := bus.Position(2 * time.Hour); ok {
		t.Fatal("position available at trip end instant")
	}
}

func TestPositionReverseTrip(t *testing.T) {
	f, err := NewFleet(straightDataset())
	if err != nil {
		t.Fatal(err)
	}
	bus := f.Bus(1)
	p, ok := bus.Position(time.Hour)
	if !ok || p != (geo.Point{X: 10000, Y: 0}) {
		t.Fatalf("reverse start = %v ok=%v", p, ok)
	}
	p, _ = bus.Position(90 * time.Minute)
	if p.X < 4990 || p.X > 5010 {
		t.Fatalf("reverse midpoint = %v", p)
	}
	// Near the end the reverse bus approaches the route origin.
	p, _ = bus.Position(time.Hour + 59*time.Minute)
	if p.X > 200 {
		t.Fatalf("reverse end position = %v, want near origin", p)
	}
}

func TestSpeedComesFromRoute(t *testing.T) {
	f, err := NewFleet(straightDataset())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Bus(0).SpeedMPS(); got != 2.78 {
		t.Fatalf("speed = %v, want route speed 2.78", got)
	}
}

func TestPingPongShift(t *testing.T) {
	// A 1 km route at 2.78 m/s takes ~360 s per leg; a 1 h shift covers
	// ~10 legs. After two legs (~719 s) the bus is back near the origin.
	ds := &tfl.Dataset{
		Area: geo.Square(20000),
		Routes: []tfl.Route{{
			ID:       "R000",
			Points:   []geo.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}},
			SpeedMPS: 2.78,
		}},
		Trips: []tfl.Trip{{ID: 0, RouteID: "R000", Start: 0, Duration: time.Hour}},
	}
	f, err := NewFleet(ds)
	if err != nil {
		t.Fatal(err)
	}
	bus := f.Bus(0)
	legSec := 1000.0 / 2.78

	// End of first leg: at the far terminus.
	p, ok := bus.Position(time.Duration(legSec * float64(time.Second)))
	if !ok || p.X < 990 {
		t.Fatalf("end of leg 1: %v ok=%v", p, ok)
	}
	// End of second leg: back at the origin.
	p, ok = bus.Position(time.Duration(2 * legSec * float64(time.Second)))
	if !ok || p.X > 10 {
		t.Fatalf("end of leg 2: %v ok=%v", p, ok)
	}
	// Mid third leg: heading out again.
	p, ok = bus.Position(time.Duration(2.5 * legSec * float64(time.Second)))
	if !ok || p.X < 400 || p.X > 600 {
		t.Fatalf("mid leg 3: %v ok=%v", p, ok)
	}
}

func TestRouteSpeedValidation(t *testing.T) {
	ds := straightDataset()
	ds.Routes[0].SpeedMPS = 0
	if _, err := NewFleet(ds); err == nil {
		t.Fatal("zero route speed accepted")
	}
}

func TestGeneratedFleetPositionsStayInArea(t *testing.T) {
	ds, err := tfl.Generate(tfl.DefaultGenConfig(21, 8, 30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(ds)
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at < tfl.Day; at += 47 * time.Minute {
		for i := 0; i < f.Len(); i++ {
			if !f.Node(i).Active(at) {
				continue
			}
			p, ok := f.Bus(i).Position(at)
			if !ok {
				t.Fatalf("Active/Position disagree for bus %d at %v", i, at)
			}
			if !ds.Area.Contains(p) {
				t.Fatalf("bus %d at %v outside area: %v", i, at, p)
			}
		}
	}
}

// Property: a bus's displacement between consecutive instants never exceeds
// speed × elapsed (continuity — buses cannot teleport).
func TestQuickNoTeleport(t *testing.T) {
	f, err := NewFleet(straightDataset())
	if err != nil {
		t.Fatal(err)
	}
	bus := f.Bus(0)
	fn := func(aSec, bSec uint16) bool {
		ta := time.Hour + time.Duration(aSec%3600)*time.Second
		tb := time.Hour + time.Duration(bSec%3600)*time.Second
		if ta > tb {
			ta, tb = tb, ta
		}
		pa, oka := bus.Position(ta)
		pb, okb := bus.Position(tb)
		if !oka || !okb {
			return true
		}
		maxMove := bus.SpeedMPS()*(tb-ta).Seconds() + 1e-6
		return pa.Dist(pb) <= maxMove
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}
