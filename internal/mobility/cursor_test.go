package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/tfl"
)

// cursorTestFleets builds one fleet per mobility model, sized so trajectories
// exercise multi-segment routes, many waypoint legs, and duty-cycled windows.
func cursorTestFleets(t *testing.T) map[string]*Fleet {
	t.Helper()
	ds, err := tfl.Generate(tfl.DefaultGenConfig(11, 4, 20*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	buses, err := NewFleet(ds)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := NewRandomWaypointFleet(RandomWaypointConfig{
		Seed: 11, Area: geo.Square(8000), NumNodes: 8,
		SpeedMinMPS: 2, SpeedMaxMPS: 12, PauseMax: 2 * time.Minute,
		Horizon: tfl.Day,
	})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewSensorGridFleet(SensorGridConfig{
		Seed: 11, Area: geo.Square(8000), NumNodes: 9,
		OnWindow: 20 * time.Minute, Period: time.Hour, Horizon: tfl.Day,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Fleet{"buses": buses, "randomwaypoint": rw, "sensorgrid": sg}
}

// TestCursorMatchesStateless is the cursor-correctness property test: for
// every mobility model, Cursor.PositionAt must equal the stateless
// Model.PositionAt bit for bit under random query sequences — monotonic
// runs of small steps (the simulator's pattern), interleaved with arbitrary
// jumps forwards and backwards (index rebuilds, window edges).
func TestCursorMatchesStateless(t *testing.T) {
	for name, fleet := range cursorTestFleets(t) {
		t.Run(name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(42))
			limit := 8
			if fleet.Len() < limit {
				limit = fleet.Len()
			}
			for i := 0; i < limit; i++ {
				m := fleet.Node(i)
				c := NewCursor(m)
				if c.Model() != m {
					t.Fatalf("node %d: cursor reports wrong model", i)
				}
				start, end := m.Window()
				span := end - start
				at := start
				for q := 0; q < 5000; q++ {
					switch rnd.Intn(10) {
					case 0: // arbitrary jump anywhere, incl. out of window
						at = start - span/10 + time.Duration(rnd.Int63n(int64(span+span/5)))
					case 1: // jump backwards
						at -= time.Duration(rnd.Int63n(int64(span/4 + 1)))
					default: // small monotonic advance
						at += time.Duration(rnd.Int63n(int64(2 * time.Second)))
					}
					want, wantOK := m.PositionAt(at)
					got, gotOK := c.PositionAt(at)
					if wantOK != gotOK || got != want {
						t.Fatalf("node %d query %d at %v: cursor (%v, %v) != stateless (%v, %v)",
							i, q, at, got, gotOK, want, wantOK)
					}
				}
			}
		})
	}
}

// TestCursorZeroAllocMonotonic locks the cursor zero-allocation invariant on
// the hot path: monotonic small-step queries allocate nothing once the
// cursor is warm.
func TestCursorZeroAllocMonotonic(t *testing.T) {
	for name, fleet := range cursorTestFleets(t) {
		t.Run(name, func(t *testing.T) {
			m := fleet.Node(0)
			c := NewCursor(m)
			start, end := m.Window()
			span := end - start
			at := start
			c.PositionAt(at) // warm the hint
			if n := testing.AllocsPerRun(500, func() {
				at += 250 * time.Millisecond
				if at >= end {
					at -= span
				}
				c.PositionAt(at)
			}); n != 0 {
				t.Fatalf("monotonic cursor query allocates %v per op, want 0", n)
			}
		})
	}
}

// TestCursorMotionAt pins the motion read: its position is PositionAt's,
// bit for bit; its span contains the instant and lies inside the service
// window; its speed keeps within the model's bound; and over the whole span
// the node is in service and the line is its trajectory.
func TestCursorMotionAt(t *testing.T) {
	for name, fleet := range cursorTestFleets(t) {
		t.Run(name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(7))
			for i := 0; i < min(8, fleet.Len()); i++ {
				m := fleet.Node(i)
				c := NewCursor(m)
				start, end := m.Window()
				for q := 0; q < 2000; q++ {
					at := start + time.Duration(rnd.Int63n(int64(end-start)))
					mo, ok := c.MotionAt(at)
					want, wantOK := m.PositionAt(at)
					if ok != wantOK || ok && (mo.Pos != want || mo.At != at) {
						t.Fatalf("node %d at %v: motion (%+v, %v) != position (%v, %v)", i, at, mo, ok, want, wantOK)
					}
					if !ok {
						continue
					}
					if v := math.Hypot(mo.Vel.X, mo.Vel.Y); v > m.SpeedMPS()*(1+1e-9) {
						t.Fatalf("node %d at %v: speed %v above the model's %v", i, at, v, m.SpeedMPS())
					}
					if mo.From > at || mo.Until < at {
						t.Fatalf("node %d at %v: span [%v, %v] misses the instant", i, at, mo.From, mo.Until)
					}
					if mo.From < start || mo.Until >= end {
						t.Fatalf("node %d at %v: span [%v, %v] leaves the window [%v, %v)", i, at, mo.From, mo.Until, start, end)
					}
					for k := 0; k < 4; k++ {
						tt := mo.From + time.Duration(rnd.Int63n(int64(mo.Until-mo.From)+1))
						if k == 3 {
							tt = mo.Until
						}
						p, ok := m.PositionAt(tt)
						if !ok {
							t.Fatalf("node %d: out of service at %v inside its span [%v, %v]", i, tt, mo.From, mo.Until)
						}
						if p.Dist(mo.PosAt(tt)) > 1e-6 {
							t.Fatalf("node %d: line from %v strays %v m from the trajectory at %v (span [%v, %v])",
								i, at, p.Dist(mo.PosAt(tt)), tt, mo.From, mo.Until)
						}
					}
				}
			}
		})
	}
}

// TestCursorMotionStateless: a model with no cursor of its own reports its
// motion for the queried instant only.
func TestCursorMotionStateless(t *testing.T) {
	m := opaque{cursorTestFleets(t)["randomwaypoint"].Node(0)}
	mo, ok := NewCursor(m).MotionAt(time.Hour)
	want, _ := m.PositionAt(time.Hour)
	if !ok || mo.Pos != want || mo.Vel != (geo.Point{}) || mo.From != time.Hour || mo.Until != time.Hour {
		t.Fatalf("stateless motion = %+v, %v; want %v held at 1h only", mo, ok, want)
	}
}

// opaque hides a model's cursor support.
type opaque struct{ Model }

// TestExactModMatchesMathMod checks exactMod against math.Mod on the inputs
// most likely to expose an off-by-one quotient: near-multiples of the
// divisor, a few ulps either side, across magnitudes.
func TestExactModMatchesMathMod(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		y := math.Ldexp(1+rnd.Float64(), rnd.Intn(40)-10)
		x := y * float64(1+rnd.Intn(1<<20))
		for k := rnd.Intn(5); k > 0; k-- {
			x = math.Nextafter(x, math.Inf(2*rnd.Intn(2)-1))
		}
		if i%2 == 1 {
			x = y * (1 + rnd.Float64()*math.Ldexp(1, rnd.Intn(30)))
		}
		if x < y {
			continue
		}
		if got, want := exactMod(x, y), math.Mod(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exactMod(%v, %v) = %v, math.Mod = %v", x, y, got, want)
		}
	}
}

// FuzzExactMod: exactMod(x, y) is math.Mod(x, y) bit for bit whenever
// x ≥ y > 0, the only inputs the bus model passes it.
func FuzzExactMod(f *testing.F) {
	for _, c := range [][2]float64{
		{7, 3}, {6, 3}, {1, 1}, {0.3, 0.1}, {1e300, 1e-300}, {math.MaxFloat64, 1},
		{9007199254740993, 3}, {4503599627370496, 1}, {2.5e5, 11304.83},
		{math.Nextafter(3*0.7, 0), 0.7}, {math.Nextafter(3*0.7, 4), 0.7},
		{math.Nextafter(1e6*0.1, 0), 0.1}, {math.Nextafter(1e6*0.1, 1e7), 0.1},
		{math.Inf(1), 2}, {5e-324 * 9, 5e-324},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		if !(y > 0) || !(x >= y) {
			return
		}
		if got, want := exactMod(x, y), math.Mod(x, y); math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("exactMod(%v, %v) = %v, math.Mod = %v", x, y, got, want)
		}
	})
}
