package mobility

import (
	"math"
	"time"

	"mlorass/internal/geo"
)

// Cursor is a stateful position reader over one Model's trajectory. It
// returns exactly what the Model's stateless PositionAt returns for every
// instant — same floating-point result, bit for bit — but caches the
// trajectory location of the previous query (the polyline segment a bus is
// on, the leg a waypoint vehicle is traversing), so the near-monotonic query
// sequences the simulator issues resume the segment walk instead of
// re-searching the whole trajectory. Time may jump arbitrarily (backwards
// included); big jumps fall back to binary search.
//
// A Cursor is not safe for concurrent use. Each simulated device holds its
// own.
type Cursor interface {
	// Model returns the underlying trajectory model.
	Model() Model
	// PositionAt returns the node position at the given instant; ok is
	// false when the node is out of service. Identical to
	// Model().PositionAt(at) for every at.
	PositionAt(at time.Duration) (geo.Point, bool)
	// MotionAt returns the node's motion at the given instant: the same
	// position PositionAt returns, plus the velocity and the span over
	// which the node keeps it. ok is false exactly when PositionAt's is.
	MotionAt(at time.Duration) (Motion, bool)
}

// Motion is a node's straight-line motion around one instant: at At it is
// at Pos, and for every t in [From, Until] the node is in service
// (PositionAt's ok holds) and its position is Pos + Vel·(t−At) up to
// floating-point rounding. Outside that span the node keeps moving no
// faster than its Model's SpeedMPS, so the straight line is still a bound
// there: the node is within 2·SpeedMPS·(distance of t from the span) of it
// whenever it is in service. So a cursor clamps the span to the node's
// service window, and a node whose service may lapse inside its window
// (a duty-cycled sensor) gets the queried instant alone. An empty span
// (From > Until) promises nothing but the bound.
type Motion struct {
	At          time.Duration
	Pos         geo.Point
	Vel         geo.Point // metres per second
	From, Until time.Duration
}

// PosAt extrapolates the straight line to instant t.
func (m Motion) PosAt(t time.Duration) geo.Point {
	dt := (t - m.At).Seconds()
	return geo.Point{X: m.Pos.X + m.Vel.X*dt, Y: m.Pos.Y + m.Vel.Y*dt}
}

// cursorable is implemented by models that carry an optimised cursor.
type cursorable interface {
	newCursor() Cursor
}

// NewCursor builds the cursor for a model. Static models get a cursor that
// reports them parked for all time; models without cached-walk support
// (external implementations) get a stateless adapter, so callers can hold
// Cursors uniformly for any fleet.
func NewCursor(m Model) Cursor {
	if c, ok := m.(cursorable); ok {
		return c.newCursor()
	}
	if sm, ok := m.(StaticModel); ok {
		return staticCursor{m: sm}
	}
	return statelessCursor{m: m}
}

// staticCursor reads a StaticModel: zero velocity. Its position holds
// forever, but its service may lapse at any instant (a duty-cycled sensor
// sleeps inside its window), so its motion spans the queried instant alone.
type staticCursor struct {
	m StaticModel
}

func (c staticCursor) Model() Model { return c.m }

func (c staticCursor) PositionAt(at time.Duration) (geo.Point, bool) {
	return c.m.PositionAt(at)
}

func (c staticCursor) MotionAt(at time.Duration) (Motion, bool) {
	p, ok := c.m.PositionAt(at)
	return Motion{At: at, Pos: p, From: at, Until: at}, ok
}

// statelessCursor adapts a Model with no resumable state and no known
// motion: its motion holds only at the queried instant, so users fall back
// to the model's speed bound.
type statelessCursor struct {
	m Model
}

func (c statelessCursor) Model() Model { return c.m }

func (c statelessCursor) PositionAt(at time.Duration) (geo.Point, bool) {
	return c.m.PositionAt(at)
}

func (c statelessCursor) MotionAt(at time.Duration) (Motion, bool) {
	p, ok := c.m.PositionAt(at)
	return Motion{At: at, Pos: p, From: at, Until: at}, ok
}

// busCursor resumes the route polyline walk from the previously hit
// segment. The shuttle triangle wave moves the arc-length target a few
// metres per event, so the hinted lookup is O(1) along the whole shift.
type busCursor struct {
	b    *Bus
	hint int
}

// newCursor implements cursorable.
func (b *Bus) newCursor() Cursor { return &busCursor{b: b} }

func (c *busCursor) Model() Model { return c.b }

//mlorass:hotpath
func (c *busCursor) PositionAt(at time.Duration) (geo.Point, bool) {
	m, _, ok := c.b.arc(at)
	if !ok {
		return geo.Point{}, false
	}
	return c.b.route.AtHint(m, &c.hint), true
}

// MotionAt follows the current route segment in the current direction of
// travel, from the vertex or turnaround the bus last passed to the next,
// within the bus's shift.
//
//mlorass:hotpath
func (c *busCursor) MotionAt(at time.Duration) (Motion, bool) {
	b := c.b
	m, outbound, ok := b.arc(at)
	if !ok {
		return Motion{}, false
	}
	mo := Motion{At: at, Pos: b.route.AtHint(m, &c.hint), From: at, Until: at}
	from, to, dir := b.route.Segment(c.hint)
	if dir == (geo.Point{}) || b.speedMPS <= 0 {
		return mo, true
	}
	behind, ahead, speed := m-from, to-m, b.speedMPS
	if !outbound {
		behind, ahead, speed = ahead, behind, -speed
	}
	mo.Vel = dir.Scale(speed)
	mo.From = max(mo.From-time.Duration(behind/b.speedMPS*float64(time.Second)), b.trip.Start)
	mo.Until = min(mo.Until+time.Duration(ahead/b.speedMPS*float64(time.Second)), b.tripEnd-1)
	return mo, true
}

// waypointCursor resumes the precomputed leg walk from the previous leg.
type waypointCursor struct {
	n    *waypointNode
	hint int
}

// newCursor implements cursorable.
func (n *waypointNode) newCursor() Cursor { return &waypointCursor{n: n} }

func (c *waypointCursor) Model() Model { return c.n }

//mlorass:hotpath
func (c *waypointCursor) PositionAt(at time.Duration) (geo.Point, bool) {
	if !c.n.Active(at) {
		return geo.Point{}, false
	}
	return c.n.posInLeg(c.leg(at), at), true
}

// MotionAt follows the current leg (a pause is a leg standing still),
// within the horizon.
//
//mlorass:hotpath
func (c *waypointCursor) MotionAt(at time.Duration) (Motion, bool) {
	n := c.n
	if !n.Active(at) {
		return Motion{}, false
	}
	i := c.leg(at)
	l := n.legs[i]
	mo := Motion{At: at, Pos: n.posInLeg(i, at), From: l.start, Until: min(l.end, n.horizon-1)}
	if span := (l.end - l.start).Seconds(); span > 0 {
		mo.Vel = l.to.Sub(l.from).Scale(1 / span)
	}
	return mo, true
}

// leg returns the index of the leg covering at, resuming from the hint.
//
//mlorass:hotpath
func (c *waypointCursor) leg(at time.Duration) int {
	n := c.n
	// walkLimit mirrors geo.Polyline.AtHint: resume linearly while the
	// query stays near the hinted leg, binary-search on real jumps.
	const walkLimit = 8
	legs := n.legs
	i := c.hint
	if i < 0 || i >= len(legs) {
		i = n.legOf(at)
	} else {
		for steps := 0; ; steps++ {
			if steps > walkLimit {
				i = n.legOf(at)
				break
			}
			if legs[i].start > at {
				i--
				continue
			}
			if i+1 < len(legs) && at >= legs[i+1].start {
				i++
				continue
			}
			break
		}
	}
	c.hint = i
	return i
}

// arc maps an instant to the bus's arc-length position along the route and
// whether arc length is growing there: the shared triangle-wave math behind
// both the stateless Position and the cursor, so the two stay bit-identical
// by construction.
//
//mlorass:hotpath
func (b *Bus) arc(at time.Duration) (m float64, outbound, ok bool) {
	if at < b.trip.Start || at >= b.tripEnd {
		return 0, false, false
	}
	length := b.length
	m = b.speedMPS * (at - b.trip.Start).Seconds()
	if m >= 2*length {
		// The reduction is needed — and paid — only from the second
		// round trip on.
		m = exactMod(m, 2*length)
	}
	outbound = m < length
	if m > length {
		m = 2*length - m
	}
	if b.trip.Reverse {
		m = length - m
		outbound = !outbound
	}
	return m, outbound, true
}

// exactMod returns math.Mod(x, y), bit for bit, for x ≥ y > 0, at a
// fraction of its cost when the quotient is small. With n the true integer
// quotient, the remainder x − n·y is exactly representable, so one fused
// multiply-add computes it exactly; trunc(x/y) is the true quotient or off
// by one, and the sign of the remainder says which way. Quotients from 2⁵²
// up (and NaN or infinite operands) take math.Mod itself.
//
//mlorass:hotpath
func exactMod(x, y float64) float64 {
	q := x / y
	if !(q < 1<<52) {
		return math.Mod(x, y)
	}
	n := math.Trunc(q)
	r := math.FMA(-n, y, x)
	if r < 0 {
		r = math.FMA(-(n - 1), y, x)
	} else if r >= y {
		r = math.FMA(-(n + 1), y, x)
	}
	return r
}
