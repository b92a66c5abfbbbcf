// Package mobility provides movement models: positions of mobile (or static)
// nodes over virtual time, the reproduction's substitute for the SUMO
// microscopic traffic simulator.
//
// The Model interface abstracts one node's trajectory and service schedule;
// a Fleet is an indexed collection of Models sharing one scenario. Three
// implementations ship:
//
//   - Bus (NewFleet): a tfl.Dataset timetable trip shuttling along its route
//     polyline at the route's average speed for the length of its service
//     shift — the paper's London evaluation scenario.
//   - waypointNode (NewRandomWaypointFleet): classic random-waypoint vehicles
//     roaming an area, for non-timetabled movement.
//   - sensorNode (NewSensorGridFleet): static sensors on a uniform grid with
//     duty-cycled activity windows, for infrastructure-style workloads.
//
// Buses are inactive outside their shift window, modelling vehicles entering
// and leaving service across the day — the driver of the Fig. 7a active-bus
// curve and of the long disconnection periods the forwarding schemes exploit.
package mobility

import (
	"fmt"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/tfl"
)

// Model is one node's trajectory and service schedule over the simulated
// horizon. Implementations must be deterministic: PositionAt is a pure
// function of the instant, so the simulator may query any time in any order.
type Model interface {
	// ID identifies the node uniquely within its Fleet.
	ID() int
	// Active reports whether the node is in service at the given instant.
	// A node may flicker within its window (duty-cycled sensors do), but
	// must never be active outside it.
	Active(at time.Duration) bool
	// PositionAt returns the node position at the given instant; ok is
	// false when the node is out of service.
	PositionAt(at time.Duration) (geo.Point, bool)
	// SpeedMPS returns an upper bound on the node's ground speed in
	// metres per second (0 for static nodes). Spatial indexes use it to
	// bound how far a node can drift between index rebuilds.
	SpeedMPS() float64
	// Window returns the node's service window [start, end): the node is
	// never active before start or at/after end.
	Window() (start, end time.Duration)
}

// Bus is one vehicle operating one timetabled trip.
type Bus struct {
	trip     tfl.Trip
	route    *geo.Polyline
	speedMPS float64 // effective speed so the trip finishes exactly on time

	// Hot-path caches of pure derivations (set by newBus): the route
	// length and the shift end, so position queries avoid re-deriving
	// them millions of times per run.
	length  float64
	tripEnd time.Duration
}

// newBus builds a bus with its hot-path caches populated.
func newBus(trip tfl.Trip, route *geo.Polyline, speedMPS float64) *Bus {
	return &Bus{
		trip:     trip,
		route:    route,
		speedMPS: speedMPS,
		length:   route.Length(),
		tripEnd:  trip.End(),
	}
}

// ID returns the trip/bus identifier (unique within the dataset).
func (b *Bus) ID() int { return b.trip.ID }

// Trip returns the underlying timetable entry.
func (b *Bus) Trip() tfl.Trip { return b.trip }

// SpeedMPS returns the route's average ground speed in metres per second.
func (b *Bus) SpeedMPS() float64 { return b.speedMPS }

// Active reports whether the bus is in service at the given instant.
func (b *Bus) Active(at time.Duration) bool { return b.trip.ActiveAt(at) }

// Window returns the bus's service shift [start, end).
func (b *Bus) Window() (start, end time.Duration) { return b.trip.Start, b.trip.End() }

// PositionAt implements Model; it is Position under the interface's name.
func (b *Bus) PositionAt(at time.Duration) (geo.Point, bool) { return b.Position(at) }

// Position returns the bus position at the given instant; ok is false when
// the bus is out of service.
//
// Within its shift the bus shuttles back and forth along the route: the
// distance travelled maps onto the polyline as a triangle wave, so a vehicle
// whose shift outlasts one end-to-end run turns around and serves the route
// in the opposite direction, exactly like a timetabled bus block.
func (b *Bus) Position(at time.Duration) (geo.Point, bool) {
	m, _, ok := b.arc(at)
	if !ok {
		return geo.Point{}, false
	}
	return b.route.At(m), true
}

// StaticModel is optionally implemented by models whose position is known
// even while the node is asleep (e.g. duty-cycled sensors). Spatial indexes
// use it to keep flickering nodes indexed across their off-windows, so a
// node waking between index rebuilds is still found as a candidate; exact
// activity is always re-checked against the Model at query time.
type StaticModel interface {
	Model
	// FixedPosition returns the node's permanent position.
	FixedPosition() geo.Point
}

// Fleet is an indexed set of mobility Models sharing one scenario. Node IDs
// equal fleet indices; every constructor must preserve that invariant.
type Fleet struct {
	nodes []Model
}

// FromModels assembles a fleet from pre-built models: the constructor
// contract every mobility scenario funnels through. Fleet identity is the
// slice index (the simulator addresses node i, not Model.ID, which is free
// scenario-level naming such as a timetable trip ID). Nil models are
// rejected.
func FromModels(nodes []Model) (*Fleet, error) {
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("mobility: node %d is nil", i)
		}
	}
	return &Fleet{nodes: nodes}, nil
}

// NewFleet compiles a dataset into buses. Route polylines are built once and
// shared between the trips that reference them.
func NewFleet(ds *tfl.Dataset) (*Fleet, error) {
	type compiled struct {
		line  *geo.Polyline
		speed float64
	}
	lines := make(map[string]compiled, len(ds.Routes))
	for _, r := range ds.Routes {
		pl, err := r.Polyline()
		if err != nil {
			return nil, fmt.Errorf("mobility: %w", err)
		}
		if r.SpeedMPS <= 0 {
			return nil, fmt.Errorf("mobility: route %s has non-positive speed %v", r.ID, r.SpeedMPS)
		}
		lines[r.ID] = compiled{line: pl, speed: r.SpeedMPS}
	}
	nodes := make([]Model, 0, len(ds.Trips))
	for _, tr := range ds.Trips {
		c, ok := lines[tr.RouteID]
		if !ok {
			return nil, fmt.Errorf("mobility: trip %d references unknown route %s", tr.ID, tr.RouteID)
		}
		if tr.Duration <= 0 {
			return nil, fmt.Errorf("mobility: trip %d has non-positive duration %v", tr.ID, tr.Duration)
		}
		nodes = append(nodes, newBus(tr, c.line, c.speed))
	}
	return FromModels(nodes)
}

// Len returns the number of nodes in the fleet.
func (f *Fleet) Len() int { return len(f.nodes) }

// Node returns node i in fleet order.
func (f *Fleet) Node(i int) Model { return f.nodes[i] }

// Bus returns node i as a *Bus, or nil when the fleet's node i is not a
// timetabled bus. Retained for timetable-specific callers and tests.
func (f *Fleet) Bus(i int) *Bus {
	b, _ := f.nodes[i].(*Bus)
	return b
}

// MaxSpeedMPS returns the fastest node's speed bound (0 for an empty or
// all-static fleet). Spatial indexes use it to size query slack.
func (f *Fleet) MaxSpeedMPS() float64 {
	max := 0.0
	for _, n := range f.nodes {
		if s := n.SpeedMPS(); s > max {
			max = s
		}
	}
	return max
}
