package experiment

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/mobility"
	"mlorass/internal/routing"
	"mlorass/internal/tfl"
)

// gridWorld gives every device a fixed position, in service for all time,
// for index tests.
type gridWorld map[int]geo.Point

func (w gridWorld) motion(id int, now, mid time.Duration) (mobility.Motion, bool) {
	p, ok := w[id]
	return mobility.Motion{At: mid, Pos: p, From: math.MinInt64, Until: math.MaxInt64}, ok
}

func TestDevIndexFindsNeighbours(t *testing.T) {
	ix := newDevIndex(1000, 30*time.Second, 11, heldQueues(5))
	world := gridWorld{
		1: {X: 100, Y: 100},
		2: {X: 500, Y: 100},
		3: {X: 5000, Y: 5000},
		4: {X: 900, Y: 0}, // in a scanned row, but parked out of range
	}
	ix.refresh(time.Minute, []int{1, 2, 3, 4}, world.motion)
	hits := ix.candidates(time.Minute, geo.Point{X: 0, Y: 0}, 800)
	got := hitIDs(hits)
	if !containsInt(got, 1) || !containsInt(got, 2) {
		t.Fatalf("candidates %v missing nearby devices", got)
	}
	for _, h := range hits {
		if !h.inRange {
			t.Fatalf("parked device %d well inside the radius left uncertified: %+v", h.id, hits)
		}
	}
	if containsInt(got, 3) || containsInt(got, 4) {
		t.Fatalf("candidates %v include a far device", got)
	}
}

// TestDevIndexCandidatesSorted: candidates come back ascending, and with
// queue emptiness drawn afresh for every query they are exactly the devices
// holding data (all twenty lie within the query radius).
func TestDevIndexCandidatesSorted(t *testing.T) {
	queues := heldQueues(20)
	ix := newDevIndex(500, time.Minute, 11, queues)
	world := gridWorld{}
	ids := make([]int, 0, 20)
	for i := 19; i >= 0; i-- {
		world[i] = geo.Point{X: float64(i * 37 % 900), Y: float64(i * 53 % 900)}
		ids = append(ids, i)
	}
	ix.refresh(0, ids, world.motion)
	rnd := rand.New(rand.NewSource(1))
	for q := 0; q < 20; q++ {
		if q > 0 {
			holdRandomly(queues, rnd)
		}
		got := hitIDs(ix.candidates(0, geo.Point{X: 450, Y: 450}, 2000))
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("query %d: candidates not sorted: %v", q, got)
			}
		}
		var want []int
		for id := range queues {
			if queues[id].Len() > 0 {
				want = append(want, id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: candidates %v, want the holders %v", q, got, want)
		}
	}
}

// heldQueues returns a queue slab of n queues holding one message each.
func heldQueues(n int) []lorawan.Queue {
	qs := make([]lorawan.Queue, n)
	for i := range qs {
		qs[i].Push(lorawan.Message{ID: uint64(i)})
	}
	return qs
}

// holdRandomly empties about half the slab's queues at random and gives
// the others one message each.
func holdRandomly(qs []lorawan.Queue, rnd *rand.Rand) {
	for i := range qs {
		qs[i] = lorawan.Queue{}
		if rnd.Intn(2) == 0 {
			qs[i].Push(lorawan.Message{ID: uint64(i)})
		}
	}
}

// checkHolders fails unless got, a query's result, holds every device
// inRange reports among those holding data, and none whose queue is empty.
func checkHolders(t *testing.T, got []int, ids []int, qs []lorawan.Queue, inRange func(id int) bool) {
	t.Helper()
	for _, id := range got {
		if qs[id].Len() == 0 {
			t.Fatalf("device %d with an empty queue among candidates %v", id, got)
		}
	}
	for _, id := range ids {
		if qs[id].Len() > 0 && inRange(id) && !containsInt(got, id) {
			t.Fatalf("device %d holds data and is in range, but missing from %v", id, got)
		}
	}
}

func TestDevIndexSkipsInactive(t *testing.T) {
	ix := newDevIndex(1000, time.Minute, 11, heldQueues(3))
	world := gridWorld{1: {X: 10, Y: 10}}
	// Device 2 reports no motion (out of service) and must not be indexed.
	src := func(id int, now, mid time.Duration) (mobility.Motion, bool) {
		if id == 2 {
			return mobility.Motion{}, false
		}
		return world.motion(id, now, mid)
	}
	ix.refresh(0, []int{1, 2}, src)
	got := hitIDs(ix.candidates(0, geo.Point{X: 0, Y: 0}, 100))
	if containsInt(got, 2) {
		t.Fatalf("inactive device indexed: %v", got)
	}
}

func TestDevIndexStaleness(t *testing.T) {
	ix := newDevIndex(1000, 30*time.Second, 11, heldQueues(3))
	world := gridWorld{1: {X: 100, Y: 100}}
	ix.refresh(0, []int{1}, world.motion)
	// Within the rebuild window the index is not rebuilt even if the
	// world changes...
	world[2] = geo.Point{X: 200, Y: 200}
	ix.refresh(10*time.Second, []int{1, 2}, world.motion)
	if got := hitIDs(ix.candidates(10*time.Second, geo.Point{X: 150, Y: 150}, 500)); containsInt(got, 2) {
		t.Fatalf("index rebuilt too early: %v", got)
	}
	// ...after the window it is.
	ix.refresh(40*time.Second, []int{1, 2}, world.motion)
	if got := hitIDs(ix.candidates(40*time.Second, geo.Point{X: 150, Y: 150}, 500)); !containsInt(got, 2) {
		t.Fatalf("index not rebuilt after staleness window: %v", got)
	}
}

func TestDevIndexSlackCoversMovement(t *testing.T) {
	// A device whose motion is known only at the placement instant (the
	// stateless cursor's answer) must still be found anywhere it can reach
	// at max speed over the rebuild window.
	ix := newDevIndex(500, 30*time.Second, 11, heldQueues(2))
	start := geo.Point{X: 1000, Y: 1000}
	pos := func(at time.Duration) geo.Point {
		return geo.Point{X: start.X + 11*at.Seconds(), Y: start.Y}
	}
	src := func(id int, now, mid time.Duration) (mobility.Motion, bool) {
		return mobility.Motion{At: mid, Pos: pos(mid), From: mid, Until: mid}, true
	}
	ix.refresh(0, []int{1}, src)
	for _, at := range []time.Duration{0, 10 * time.Second, 29 * time.Second} {
		if got := hitIDs(ix.candidates(at, pos(at), 100)); !containsInt(got, 1) {
			t.Fatalf("moving device escaped the index slack at %v: %v", at, got)
		}
	}
}

func TestDevIndexDefaultCell(t *testing.T) {
	ix := newDevIndex(0, time.Minute, 11, nil) // 0 falls back to a 1 km radius
	if ix.rowM != 1000*ixRowFrac {
		t.Fatalf("default row height = %v", ix.rowM)
	}
}

// Property: the index over-approximates — every device truly within the
// query radius appears among the candidates.
func TestQuickDevIndexComplete(t *testing.T) {
	f := func(coords []uint16, qx, qy uint16, radRaw uint8) bool {
		ix := newDevIndex(700, time.Minute, 11, heldQueues(len(coords)/2))
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
		got := hitIDs(ix.candidates(0, q, radius))
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

// hitIDs returns a query result's device ids, in its order.
func hitIDs(hits []ixHit) []int {
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = int(h.id)
	}
	return ids
}

// checkCertified fails unless every hit the query certified in range is
// within the radius by exact, reporting whether the device is in service
// and where it is.
func checkCertified(t *testing.T, hits []ixHit, p geo.Point, radius float64, exact func(id int) (geo.Point, bool)) {
	t.Helper()
	for _, h := range hits {
		if !h.inRange {
			continue
		}
		q, ok := exact(int(h.id))
		if !ok || q.Dist(p) > radius {
			t.Fatalf("device %d certified in range but at %v (in service: %v), %.6f m from %v, radius %v",
				h.id, q, ok, q.Dist(p), p, radius)
		}
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
// invariant: once the row and scratch buffers are warm, rebuilds and
// candidate queries allocate nothing.
func TestDevIndexZeroAllocSteadyState(t *testing.T) {
	ix := newDevIndex(500, 30*time.Second, 11, heldQueues(1001))
	world := gridWorld{}
	ids := make([]int, 0, 200)
	for i := 0; i < 200; i++ {
		world[i] = geo.Point{X: float64(i*97%5000) + 0.5, Y: float64(i*131%5000) + 0.5}
		ids = append(ids, i)
	}
	world[1000] = geo.Point{X: 2400, Y: 2600} // enters service between rebuilds
	src := motionSource(world.motion)         // hoisted: the closure is the caller's, not the index's
	now := time.Duration(0)
	// Warm every buffer (rows, entries, keys, cursors, slots, pending, scratch).
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
		t.Fatalf("index refresh allocates %v per rebuild, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ix.candidates(now, geo.Point{X: 2500, Y: 2500}, 800)
	}); n != 0 {
		t.Fatalf("index query allocates %v per call, want 0", n)
	}
}

// TestDevIndexMatchesBruteForce cross-checks the index against a brute force
// reference over randomised worlds, for ascending and non-ascending id
// input, with queue emptiness drawn afresh for every query: candidates come
// back ascending, hold every in-range device that holds data, and no device
// whose queue is empty.
func TestDevIndexMatchesBruteForce(t *testing.T) {
	rnd := func(seed, mod int) float64 { return float64((seed*2654435761)%mod) + 0.25 }
	held := rand.New(rand.NewSource(2))
	for _, descending := range []bool{false, true} {
		queues := heldQueues(300)
		ix := newDevIndex(700, 30*time.Second, 11, queues)
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
			holdRandomly(queues, held)
			hits := ix.candidates(time.Duration(q)*time.Second, p, radius)
			got := hitIDs(hits)
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("descending=%v query %d: candidates not ascending: %v", descending, q, got)
				}
			}
			checkHolders(t, got, ids, queues, func(id int) bool { return world[id].Dist(p) <= radius })
			checkCertified(t, hits, p, radius, func(id int) (geo.Point, bool) { return world[id], true })
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
// candidate, candidates come back strictly ascending, and every candidate
// certified in range is in service within the radius by its model's
// stateless position. Devices enter service between rebuilds, as they do
// in the engines.
func TestDevIndexSupersetOfTrueNeighbours(t *testing.T) {
	devs := kinematicTestDevices(t)
	maxSpeed := 11.0
	for _, d := range devs {
		maxSpeed = max(maxSpeed, d.node.SpeedMPS())
	}
	const radius = 500
	rnd := rand.New(rand.NewSource(3))
	for _, period := range []time.Duration{10 * time.Second, 30 * time.Second, 2 * time.Minute} {
		ix := newDevIndex(radius, period, maxSpeed, heldQueues(len(devs)))
		src := func(id int, now, mid time.Duration) (mobility.Motion, bool) {
			return indexMotion(devs[id], now, mid)
		}
		// The bus timetable's morning ramp: trips start and end all along.
		now := 7 * time.Hour
		var active []int
		activated := make([]bool, len(devs))
		queries, certified := 0, 0
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
			hits := ix.candidates(now, p, radius)
			got := hitIDs(hits)
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("period %v at %v: candidates not ascending: %v", period, now, got)
				}
			}
			checkCertified(t, hits, p, radius, func(id int) (geo.Point, bool) { return devs[id].node.PositionAt(now) })
			for _, h := range hits {
				if h.inRange {
					certified++
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
		if queries == 0 || certified == 0 {
			t.Fatalf("%d queries certified %d candidates; the property needs both", queries, certified)
		}
	}
}

// TestOverhearCertificatesHold runs the quick urban fig-8 grid's forwarding
// cells on one tile and two, and the waypoint and sensor-grid scenarios, with a
// hook on every index hit that an overhear loop trusts as certified in
// range: each must be in service within the radius by its model's
// stateless position. The hook is called from every tile.
func TestOverhearCertificatesHold(t *testing.T) {
	var mu sync.Mutex
	checked, bad := 0, []string(nil)
	inRangeHook = func(z *device, p geo.Point, at time.Duration, radius float64) {
		q, ok := z.node.PositionAt(at)
		mu.Lock()
		defer mu.Unlock()
		checked++
		if !ok || q.Dist(p) > radius {
			bad = append(bad, fmt.Sprintf("device %d at %v: at %v (in service: %v), %.6f m from %v",
				z.id, at, q, ok, q.Dist(p), p))
		}
	}
	defer func() { inRangeHook = nil }()
	var cfgs []Config
	for _, gw := range GatewaySweep() {
		for _, sc := range []routing.Scheme{routing.SchemeRCAETX, routing.SchemeROBC} {
			cfg := QuickConfig()
			cfg.Seed, cfg.NumGateways, cfg.Scheme = 1, gw, sc
			cfgs = append(cfgs, cfg)
		}
	}
	cfgs = append(cfgs, tinyScenario(MobilityRandomWaypoint), tinyScenario(MobilitySensorGrid))
	for _, shards := range []int{1, 2} {
		for _, cfg := range cfgs {
			cfg.Shards = shards
			before := checked
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Fatalf("shards=%d %v %d gateways, mobility %v: %d certificates wrong, first %s",
					shards, cfg.Scheme, cfg.NumGateways, cfg.Mobility.Model, len(bad), bad[0])
			}
			if cfg.Mobility.Model == MobilityBuses && checked == before {
				t.Fatalf("shards=%d %v %d gateways: no certified hit was trusted", shards, cfg.Scheme, cfg.NumGateways)
			}
		}
	}
	t.Logf("%d certified hits checked", checked)
}

// TestRunIndependentOfIndexPeriod: queries return a superset of the true
// neighbours whatever the rebuild period, so a run's bytes cannot depend on
// it — on one tile or two, with device churn in play.
func TestRunIndependentOfIndexPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick scenario four times")
	}
	defer func(p time.Duration) { ixRebuildEvery = p }(ixRebuildEvery)
	for _, shards := range []int{1, 2} {
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

// TestDevIndexRebuildIndependentOfArea: a rebuild's buffers follow the
// device count, not the area the devices span. Forty devices strung out
// over a 1,000 km strip, along either axis, cost a cold rebuild about what
// forty devices in one town do; steady-state rebuilds allocate nothing.
func TestDevIndexRebuildIndependentOfArea(t *testing.T) {
	const n, strip = 40, 1_000_000.0
	for _, axis := range []string{"x", "y"} {
		world := gridWorld{}
		ids := make([]int, n)
		for i := range ids {
			along, across := strip*float64(i)/(n-1), float64(i%3)*120
			p := geo.Point{X: along, Y: across}
			if axis == "y" {
				p = geo.Point{X: across, Y: along}
			}
			world[i], ids[i] = p, i
		}
		src := motionSource(world.motion)
		ix := newDevIndex(100, 30*time.Second, 11, heldQueues(n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix.refresh(0, ids, src)
		runtime.ReadMemStats(&after)
		// About 200 B of entries, keys and slots per device, with
		// append's growth on top; a grid over the strip at the 100 m
		// radius would need hundreds of kilobytes.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1024*n {
			t.Errorf("strip along %s: cold rebuild allocated %d B for %d devices, want ≤ %d", axis, got, n, 1024*n)
		}
		now := time.Duration(0)
		if allocs := testing.AllocsPerRun(50, func() {
			now += time.Minute
			ix.refresh(now, ids, src)
		}); allocs != 0 {
			t.Errorf("strip along %s: steady-state rebuild allocates %v, want 0", axis, allocs)
		}
		for id, p := range world {
			if got := hitIDs(ix.candidates(now, p, 100)); !containsInt(got, id) {
				t.Fatalf("strip along %s: device %d missing from a query at its own position: %v", axis, id, got)
			}
		}
	}
}

// FuzzDevIndexSuperset: over arbitrary placements — far off, negative,
// stacked on one x in one row — and query instants, with queue emptiness
// drawn afresh for every query, the index never panics and every query
// returns, strictly ascending, a superset of the devices holding data that
// a brute force finds in range, and no device whose queue is empty; and
// every device it certifies in range is within the radius at its exact
// position.
func FuzzDevIndexSuperset(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 10, 0, 0, 0}, int64(0), int64(0), int64(0), uint16(500))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 9, 9, 1, 2, 200, 7, 1, 2, 0, 0}, int64(12), int64(3), int64(90), uint16(40))
	f.Add([]byte{0x80, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, int64(-5), int64(1e9), int64(-1e9), uint16(1))
	var stacked []byte // six devices on one x in one row
	for y := byte(0); y < 24; y += 4 {
		stacked = append(stacked, 0x10, 0, y, 0)
	}
	f.Add(stacked, int64(0), int64(64), int64(4), uint16(30))
	f.Fuzz(func(t *testing.T, coords []byte, qt, qx, qy int64, radRaw uint16) {
		// Placements are 16-bit coordinates scaled by a per-device
		// power of four up to ±2^31 m. An odd first byte makes the
		// device drive at a few m/s from 1 min to 3 min, parked on
		// either side of that.
		var lines []mobility.Motion
		var ids []int
		for i := 0; i+4 <= len(coords) && len(ids) < 64; i += 4 {
			scale := math.Ldexp(1, 2*int(coords[i]>>4))
			x := float64(int16(binary.LittleEndian.Uint16(coords[i:]))) * scale
			y := float64(int16(binary.LittleEndian.Uint16(coords[i+2:]))>>2) * scale
			m := mobility.Motion{Pos: geo.Point{X: x, Y: y}, From: time.Minute, Until: 3 * time.Minute}
			if v := int8(coords[i+1]) % 8; coords[i]&1 == 1 {
				m.Vel = geo.Point{X: float64(v), Y: float64(v) / 2}
			}
			ids = append(ids, len(lines))
			lines = append(lines, m)
		}
		pos := func(id int, at time.Duration) geo.Point {
			m := lines[id]
			return m.PosAt(min(max(at, m.From), m.Until))
		}
		src := func(id int, now, mid time.Duration) (mobility.Motion, bool) {
			m := lines[id]
			switch {
			case mid < m.From:
				return mobility.Motion{At: mid, Pos: pos(id, mid), From: math.MinInt64, Until: m.From}, true
			case mid > m.Until:
				return mobility.Motion{At: mid, Pos: pos(id, mid), From: m.Until, Until: math.MaxInt64}, true
			}
			m.Pos, m.At = pos(id, mid), mid
			return m, true
		}
		queues := heldQueues(len(ids))
		held := rand.New(rand.NewSource(qt ^ qx<<1 ^ qy<<2 ^ int64(radRaw)))
		ix := newDevIndex(float64(radRaw%2000)+1, 30*time.Second, 8, queues)
		radius := float64(radRaw%3000) + 1
		now := time.Duration(qt % int64(time.Hour))
		if now < 0 {
			now = -now
		}
		for step := 0; step < 3; step++ {
			at := now + time.Duration(step)*45*time.Second
			ix.refresh(at, ids, src)
			for q := 0; q < 4; q++ {
				qAt := at + time.Duration(q)*7*time.Second
				p := geo.Point{X: float64(qx % (1 << 33)), Y: float64(qy % (1 << 33))}
				if q%2 == 1 && len(ids) > 0 {
					p = pos(ids[q%len(ids)], qAt)
				}
				holdRandomly(queues, held)
				hits := ix.candidates(qAt, p, radius)
				got := hitIDs(hits)
				for i := 1; i < len(got); i++ {
					if got[i] <= got[i-1] {
						t.Fatalf("candidates not ascending: %v", got)
					}
				}
				checkHolders(t, got, ids, queues, func(id int) bool { return pos(id, qAt).Dist(p) <= radius })
				checkCertified(t, hits, p, radius, func(id int) (geo.Point, bool) { return pos(id, qAt), true })
			}
		}
	})
}

// benchWorld moves devices back and forth along straight 600 m legs at
// 8 m/s, so a rebuild both slides lines that stay exact and reads fresh
// ones, as it does for buses between route vertices.
type benchWorld struct {
	centre, dir []geo.Point
	offset      []time.Duration
}

const benchLeg = 75 * time.Second // 600 m at 8 m/s

func newBenchWorld(n int, side float64) benchWorld {
	rnd := rand.New(rand.NewSource(int64(n)))
	w := benchWorld{}
	for i := 0; i < n; i++ {
		a := rnd.Float64() * 2 * math.Pi
		w.centre = append(w.centre, geo.Point{X: rnd.Float64() * side, Y: rnd.Float64() * side})
		w.dir = append(w.dir, geo.Point{X: math.Cos(a), Y: math.Sin(a)})
		w.offset = append(w.offset, time.Duration(rnd.Int63n(int64(2*benchLeg))))
	}
	return w
}

func (w benchWorld) motion(id int, now, mid time.Duration) (mobility.Motion, bool) {
	t := mid + w.offset[id]
	leg := t / benchLeg
	from := leg*benchLeg - w.offset[id]
	sign := 1.0
	if leg%2 == 1 {
		sign = -1
	}
	d := w.dir[id]
	c := w.centre[id]
	along := sign * (8*(mid-from).Seconds() - 300)
	return mobility.Motion{
		At:    mid,
		Pos:   geo.Point{X: c.X + d.X*along, Y: c.Y + d.Y*along},
		Vel:   geo.Point{X: 8 * sign * d.X, Y: 8 * sign * d.Y},
		From:  from,
		Until: from + benchLeg,
	}, true
}

// BenchmarkDevIndex times the neighbour index alone at the quick scenario's
// density (~36 devices in service over 8 km) and the paper's (~560 over
// 12.25 km), at the urban 500 m radius: a full rebuild, and one overhear
// query centred on a device.
func BenchmarkDevIndex(b *testing.B) {
	for _, sc := range []struct {
		name string
		n    int
		side float64
	}{{"quick", 36, 8000}, {"paper", 560, 12250}} {
		w := newBenchWorld(sc.n, sc.side)
		src := motionSource(w.motion)
		ids := make([]int, sc.n)
		for i := range ids {
			ids[i] = (i * 7) % sc.n // activation order, not id order
		}
		b.Run("Refresh/"+sc.name, func(b *testing.B) {
			ix := newDevIndex(500, 30*time.Second, 11, heldQueues(sc.n))
			now := time.Duration(0)
			b.ReportAllocs()
			for b.Loop() {
				now += 30 * time.Second
				ix.refresh(now, ids, src)
			}
		})
		b.Run("Query/"+sc.name, func(b *testing.B) {
			ix := newDevIndex(500, 30*time.Second, 11, heldQueues(sc.n))
			ix.refresh(time.Hour, ids, src)
			type query struct {
				at time.Duration
				p  geo.Point
			}
			qs := make([]query, 256)
			for i := range qs {
				at := time.Hour + time.Duration(i)*30*time.Second/time.Duration(len(qs))
				m, _ := w.motion(i%sc.n, at, at)
				qs[i] = query{at, m.Pos}
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				q := qs[i%len(qs)]
				ixSink += len(ix.candidates(q.at, q.p, 500))
				i++
			}
		})
	}
}

var ixSink int
