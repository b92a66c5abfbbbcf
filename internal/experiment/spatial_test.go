package experiment

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/mobility"
	"mlorass/internal/routing"
	"mlorass/internal/tfl"
)

// gridWorld gives every device a fixed position for index tests.
type gridWorld map[int]geo.Point

func (w gridWorld) motion(id int, now, mid time.Duration) (mobility.Motion, bool) {
	p, ok := w[id]
	return mobility.Stationary(mid, p), ok
}

func TestDevIndexFindsNeighbours(t *testing.T) {
	ix := newDevIndex(1000, 30*time.Second, 11)
	world := gridWorld{
		1: {X: 100, Y: 100},
		2: {X: 500, Y: 100},
		3: {X: 5000, Y: 5000},
		4: {X: 900, Y: 0}, // in a scanned cell, but parked out of range
	}
	ix.refresh(time.Minute, []int{1, 2, 3, 4}, world.motion)
	got := ix.candidates(time.Minute, geo.Point{X: 0, Y: 0}, 800)
	if !containsInt(got, 1) || !containsInt(got, 2) {
		t.Fatalf("candidates %v missing nearby devices", got)
	}
	if containsInt(got, 3) || containsInt(got, 4) {
		t.Fatalf("candidates %v include a far device", got)
	}
}

func TestDevIndexCandidatesSorted(t *testing.T) {
	ix := newDevIndex(500, time.Minute, 11)
	world := gridWorld{}
	ids := make([]int, 0, 20)
	for i := 19; i >= 0; i-- {
		world[i] = geo.Point{X: float64(i * 37 % 900), Y: float64(i * 53 % 900)}
		ids = append(ids, i)
	}
	ix.refresh(0, ids, world.motion)
	got := ix.candidates(0, geo.Point{X: 450, Y: 450}, 2000)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("candidates not sorted: %v", got)
		}
	}
}

func TestDevIndexSkipsInactive(t *testing.T) {
	ix := newDevIndex(1000, time.Minute, 11)
	world := gridWorld{1: {X: 10, Y: 10}}
	// Device 2 reports no motion (out of service) and must not be indexed.
	src := func(id int, now, mid time.Duration) (mobility.Motion, bool) {
		if id == 2 {
			return mobility.Motion{}, false
		}
		return world.motion(id, now, mid)
	}
	ix.refresh(0, []int{1, 2}, src)
	got := ix.candidates(0, geo.Point{X: 0, Y: 0}, 100)
	if containsInt(got, 2) {
		t.Fatalf("inactive device indexed: %v", got)
	}
}

func TestDevIndexStaleness(t *testing.T) {
	ix := newDevIndex(1000, 30*time.Second, 11)
	world := gridWorld{1: {X: 100, Y: 100}}
	ix.refresh(0, []int{1}, world.motion)
	// Within the rebuild window the index is not rebuilt even if the
	// world changes...
	world[2] = geo.Point{X: 200, Y: 200}
	ix.refresh(10*time.Second, []int{1, 2}, world.motion)
	if got := ix.candidates(10*time.Second, geo.Point{X: 150, Y: 150}, 500); containsInt(got, 2) {
		t.Fatalf("index rebuilt too early: %v", got)
	}
	// ...after the window it is.
	ix.refresh(40*time.Second, []int{1, 2}, world.motion)
	if got := ix.candidates(40*time.Second, geo.Point{X: 150, Y: 150}, 500); !containsInt(got, 2) {
		t.Fatalf("index not rebuilt after staleness window: %v", got)
	}
}

func TestDevIndexSlackCoversMovement(t *testing.T) {
	// A device whose motion is known only at the placement instant (the
	// stateless cursor's answer) must still be found anywhere it can reach
	// at max speed over the rebuild window.
	ix := newDevIndex(500, 30*time.Second, 11)
	start := geo.Point{X: 1000, Y: 1000}
	pos := func(at time.Duration) geo.Point {
		return geo.Point{X: start.X + 11*at.Seconds(), Y: start.Y}
	}
	src := func(id int, now, mid time.Duration) (mobility.Motion, bool) {
		return mobility.Motion{At: mid, Pos: pos(mid), From: mid, Until: mid}, true
	}
	ix.refresh(0, []int{1}, src)
	for _, at := range []time.Duration{0, 10 * time.Second, 29 * time.Second} {
		if got := ix.candidates(at, pos(at), 100); !containsInt(got, 1) {
			t.Fatalf("moving device escaped the index slack at %v: %v", at, got)
		}
	}
}

func TestDevIndexDefaultCell(t *testing.T) {
	ix := newDevIndex(0, time.Minute, 11) // 0 falls back to a 1 km radius
	if ix.rowM != 1000*ixRowFrac || ix.colM != 1000*ixColFrac {
		t.Fatalf("default cells = %v × %v", ix.colM, ix.rowM)
	}
}

// Property: the index over-approximates — every device truly within the
// query radius appears among the candidates.
func TestQuickDevIndexComplete(t *testing.T) {
	f := func(coords []uint16, qx, qy uint16, radRaw uint8) bool {
		ix := newDevIndex(700, time.Minute, 11)
		world := gridWorld{}
		ids := make([]int, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			id := i / 2
			world[id] = geo.Point{X: float64(coords[i] % 10000), Y: float64(coords[i+1] % 10000)}
			ids = append(ids, id)
		}
		ix.refresh(0, ids, world.motion)
		q := geo.Point{X: float64(qx % 10000), Y: float64(qy % 10000)}
		radius := float64(radRaw)*10 + 1
		got := ix.candidates(0, q, radius)
		for id, p := range world {
			if p.Dist(q) <= radius && !containsInt(got, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestDevIndexZeroAllocSteadyState locks the index's zero-allocation
// invariant: once the grid and scratch buffers are warm, rebuilds and
// candidate queries allocate nothing.
func TestDevIndexZeroAllocSteadyState(t *testing.T) {
	ix := newDevIndex(500, 30*time.Second, 11)
	world := gridWorld{}
	ids := make([]int, 0, 200)
	for i := 0; i < 200; i++ {
		world[i] = geo.Point{X: float64(i*97%5000) + 0.5, Y: float64(i*131%5000) + 0.5}
		ids = append(ids, i)
	}
	world[1000] = geo.Point{X: 2400, Y: 2600} // enters service between rebuilds
	src := motionSource(world.motion)         // hoisted: the closure is the caller's, not the index's
	now := time.Duration(0)
	// Warm every buffer (grid, entries, cursors, slots, pending, scratch).
	for i := 0; i < 3; i++ {
		ix.refresh(now, ids, src)
		ix.activate(1000, now, src)
		ix.candidates(now, geo.Point{X: 2500, Y: 2500}, 800)
		now += time.Minute
	}
	if n := testing.AllocsPerRun(100, func() {
		now += time.Minute // always stale: every call is a full rebuild
		ix.refresh(now, ids, src)
		ix.activate(1000, now, src)
	}); n != 0 {
		t.Fatalf("grid refresh allocates %v per rebuild, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ix.candidates(now, geo.Point{X: 2500, Y: 2500}, 800)
	}); n != 0 {
		t.Fatalf("grid query allocates %v per call, want 0", n)
	}
}

// TestDevIndexMatchesBruteForce cross-checks the grid against a brute force
// reference over randomised worlds: candidate supersets and ascending order,
// for ascending and non-ascending id input.
func TestDevIndexMatchesBruteForce(t *testing.T) {
	rnd := func(seed, mod int) float64 { return float64((seed*2654435761)%mod) + 0.25 }
	for _, descending := range []bool{false, true} {
		ix := newDevIndex(700, 30*time.Second, 11)
		world := gridWorld{}
		var ids []int
		for i := 0; i < 300; i++ {
			world[i] = geo.Point{X: rnd(i+1, 9000), Y: rnd(i+7, 9000)}
			ids = append(ids, i)
		}
		if descending {
			for l, r := 0, len(ids)-1; l < r; l, r = l+1, r-1 {
				ids[l], ids[r] = ids[r], ids[l]
			}
		}
		ix.refresh(0, ids, world.motion)
		for q := 0; q < 50; q++ {
			p := geo.Point{X: rnd(q+3, 9000), Y: rnd(q+11, 9000)}
			radius := 400 + float64(q*37%1200)
			got := ix.candidates(time.Duration(q)*time.Second, p, radius)
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("descending=%v query %d: candidates not ascending: %v", descending, q, got)
				}
			}
			for id, pt := range world {
				if pt.Dist(p) <= radius && !containsInt(got, id) {
					t.Fatalf("descending=%v query %d: device %d within %v missing from %v",
						descending, q, id, radius, got)
				}
			}
		}
	}
}

// opaqueModel hides a model's cursor and static-position support, so
// mobility.NewCursor falls back to the stateless adapter.
type opaqueModel struct{ mobility.Model }

// kinematicTestDevices builds devices over every trajectory kind the index
// must bound: buses (route vertices, end-of-route turnarounds, trip ends,
// trips starting mid-run), random-waypoint vehicles with pauses, duty-cycled
// static sensors, and vehicles only the stateless cursor can read.
func kinematicTestDevices(t *testing.T) []*device {
	t.Helper()
	area := geo.Square(4000)
	gc := tfl.DefaultGenConfig(5, 8, 10*time.Minute)
	gc.Area, gc.RouteMinM, gc.RouteMaxM = area, 1500, 4000
	ds, err := tfl.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	buses, err := mobility.NewFleet(ds)
	if err != nil {
		t.Fatal(err)
	}
	rwCfg := mobility.RandomWaypointConfig{
		Seed: 5, Area: area, NumNodes: 40, SpeedMinMPS: 2, SpeedMaxMPS: 11,
		PauseMax: time.Minute, Horizon: tfl.Day,
	}
	rw, err := mobility.NewRandomWaypointFleet(rwCfg)
	if err != nil {
		t.Fatal(err)
	}
	rwCfg.Seed = 6
	opaque, err := mobility.NewRandomWaypointFleet(rwCfg)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := mobility.NewSensorGridFleet(mobility.SensorGridConfig{
		Seed: 5, Area: area, NumNodes: 30, OnWindow: 40 * time.Second,
		Period: 2 * time.Minute, Horizon: tfl.Day,
	})
	if err != nil {
		t.Fatal(err)
	}
	var models []mobility.Model
	for i := 0; i < buses.Len(); i++ {
		models = append(models, buses.Node(i))
	}
	for i := 0; i < rw.Len(); i++ {
		models = append(models, rw.Node(i), opaqueModel{opaque.Node(i)})
	}
	for i := 0; i < sg.Len(); i++ {
		models = append(models, sg.Node(i))
	}
	devs := make([]*device, len(models))
	for i, m := range models {
		devs[i] = &device{id: i, node: m, cursor: mobility.NewCursor(m)}
	}
	return devs
}

// TestDevIndexSupersetOfTrueNeighbours is the kinematic index's property
// test: at random instants across each rebuild window, every device truly
// in service within the radius — by brute force over real cursors — is a
// candidate, and candidates come back strictly ascending. Devices enter
// service between rebuilds, as they do in the engines.
func TestDevIndexSupersetOfTrueNeighbours(t *testing.T) {
	devs := kinematicTestDevices(t)
	maxSpeed := 11.0
	for _, d := range devs {
		maxSpeed = max(maxSpeed, d.node.SpeedMPS())
	}
	const radius = 500
	rnd := rand.New(rand.NewSource(3))
	for _, period := range []time.Duration{10 * time.Second, 30 * time.Second, 2 * time.Minute} {
		ix := newDevIndex(radius, period, maxSpeed)
		src := func(id int, now, mid time.Duration) (mobility.Motion, bool) {
			return indexMotion(devs[id], now, mid)
		}
		// The bus timetable's morning ramp: trips start and end all along.
		now := 7 * time.Hour
		var active []int
		activated := make([]bool, len(devs))
		queries := 0
		for step := 0; step < 3000; step++ {
			now += time.Duration(rnd.Int63n(int64(4 * time.Second)))
			for id, d := range devs {
				if start, _ := d.node.Window(); !activated[id] && start <= now {
					activated[id] = true
					active = append(active, id)
					ix.activate(id, now, src)
				}
			}
			if ix.stale(now) {
				ix.refresh(now, active, src)
			}
			// Centre half the queries on a device, half anywhere.
			p := geo.Point{X: rnd.Float64() * 4000, Y: rnd.Float64() * 4000}
			if q, ok := devs[active[rnd.Intn(len(active))]].cursor.PositionAt(now); ok && rnd.Intn(2) == 0 {
				p = q
			}
			got := ix.candidates(now, p, radius)
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("period %v at %v: candidates not ascending: %v", period, now, got)
				}
			}
			for _, id := range active {
				pos, ok := devs[id].cursor.PositionAt(now)
				if ok && pos.Dist(p) <= radius && !containsInt(got, id) {
					t.Fatalf("period %v at %v: device %d (%T) at %v, %.1f m from %v, missing from %v",
						period, now, id, devs[id].node, pos, pos.Dist(p), p, got)
				}
			}
			queries++
		}
		if queries == 0 {
			t.Fatal("no queries ran")
		}
	}
}

// TestRunIndependentOfIndexPeriod: queries return a superset of the true
// neighbours whatever the rebuild period, so a run's bytes cannot depend on
// it — on either engine, with device churn in play.
func TestRunIndependentOfIndexPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick scenario four times")
	}
	defer func(p time.Duration) { ixRebuildEvery = p }(ixRebuildEvery)
	for _, shards := range []int{0, 2} {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = routing.SchemeROBC
		cfg.Shards = shards
		cfg.Disruption.DeviceChurnFraction = 0.2
		var reps []string
		for _, period := range []time.Duration{30 * time.Second, 7 * time.Second} {
			ixRebuildEvery = period
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, res.Report())
		}
		if reps[0] != reps[1] {
			t.Errorf("shards=%d: report depends on the index rebuild period:\n--- 30s\n%s\n--- 7s\n%s",
				shards, reps[0], reps[1])
		}
	}
}
