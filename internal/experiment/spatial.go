package experiment

import (
	"math"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/mobility"
)

// devIndex is a kinematic neighbour index over the active devices: a Verlet
// neighbour list whose skin is each device's own motion.
//
// A rebuild, once per period of virtual time, reads every listed device's
// straight-line motion (mobility.Motion) at the middle of the coming period
// and stores the device once, in the grid cell of that mid-period position,
// together with the line. A query at instant t around p then
//
//   - scans only the cells within radius + vmax·|t − mid| of p, because no
//     device gets further than vmax·|t − mid| from where it was placed;
//   - keeps a device whose line at t lies within radius + ε, widened by
//     2·vmax per second that t lies outside the span over which the line
//     is the device's path: off the span both still move at ≤ vmax from
//     the point where they split.
//
// A bus's span is its current route segment, so for most devices most of
// the time the bound is the radius itself. Queries return a superset of the
// devices within the radius, ascending by id; callers check exact distances
// against live positions. Every buffer is reused across refreshes:
// steady-state rebuilds and queries allocate nothing.
type devIndex struct {
	rowM, colM     float64 // grid row height and column width
	perRow, perCol float64 // their inverses
	period         time.Duration
	maxSpeedMPS    float64

	builtAt, mid time.Duration
	valid        bool

	// The grid spans the placed devices' bounding box, row-major:
	// cellStart[c]..cellStart[c+1] delimits cell c's entries in ents, so
	// one row's run of cells is one contiguous stretch of ents.
	minCX, minCY int
	cols, rows   int
	cellStart    []int32
	ents         []ixEntry

	// slot maps a device id to its entry's index in ents, so a rebuild can
	// slide a line that stays exact instead of reading the motion again.
	// Entries of devices missing from the last rebuild fail the id check.
	slot []int32

	// Rebuild scratch, reused across refreshes.
	placed []ixEntry
	cells  []ixCell // placed[i]'s cell
	cursor []int32  // per-cell write cursor

	// pending holds the devices that entered service since the last
	// rebuild, checked by every query outside the grid, so a device
	// overhears from its first instant in service on.
	pending []ixEntry

	scratch []int
}

// ixEntry is one indexed device: its line as the position at the index's
// mid instant plus a velocity, and the span over which the line is exact.
type ixEntry struct {
	x, y, vx, vy float64
	from, until  time.Duration
	id           int32
}

// ixCell is a grid cell during a rebuild: column and row, then flat index.
type ixCell struct{ cx, cy int32 }

// motionSource reads device id's motion for a rebuild at now: its motion at
// the instant nearest mid at which it is in service. ok is false for a
// device out of service from now on.
type motionSource func(id int, now, mid time.Duration) (mobility.Motion, bool)

// Index tuning, measured on the paper-scale day.
const (
	// ixRowFrac and ixColFrac size the grid's rows and columns relative
	// to the query radius. Narrow cells fit the scanned area to the query
	// disc; each scanned row costs a square root and two offset reads.
	ixRowFrac = 1
	ixColFrac = 0.125
	// posEpsilonM widens the line filter past the floating-point rounding
	// of extrapolated positions, which stays far below a millimetre.
	posEpsilonM = 0.05
)

// ixRebuildEvery is the rebuild period. Queries return a superset of the
// true neighbours whatever its value, so results do not depend on it; it is
// a variable only so a test can prove that.
var ixRebuildEvery = 30 * time.Second

// newDevIndex sizes the grid by the nominal query radius.
func newDevIndex(radiusM float64, period time.Duration, maxSpeedMPS float64) *devIndex {
	if radiusM <= 0 {
		radiusM = 1000
	}
	ix := &devIndex{
		rowM:        radiusM * ixRowFrac,
		colM:        radiusM * ixColFrac,
		period:      period,
		maxSpeedMPS: maxSpeedMPS,
	}
	ix.perRow, ix.perCol = 1/ix.rowM, 1/ix.colM
	return ix
}

func (ix *devIndex) colOf(x float64) int { return floorInt(x * ix.perCol) }
func (ix *devIndex) rowOf(y float64) int { return floorInt(y * ix.perRow) }

// floorInt is int(math.Floor(x)) for x in int range, without the call.
func floorInt(x float64) int {
	i := int(x)
	if float64(i) > x {
		i--
	}
	return i
}

// stale reports whether refresh would rebuild at the given instant. Callers
// on the hot path check it before assembling the motion source.
func (ix *devIndex) stale(now time.Duration) bool {
	return !ix.valid || now-ix.builtAt >= ix.period
}

// refresh rebuilds the index when stale, from the motions src reads for
// the listed devices (ok=false entries are skipped).
//
//mlorass:hotpath
func (ix *devIndex) refresh(now time.Duration, ids []int, src motionSource) {
	if !ix.stale(now) {
		return
	}
	prevMid := ix.mid
	ix.builtAt, ix.mid, ix.valid = now, now+ix.period/2, true
	shift := (ix.mid - prevMid).Seconds()
	ix.pending = ix.pending[:0]
	ix.placed = ix.placed[:0]
	ix.cells = ix.cells[:0]
	minCX, minCY := math.MaxInt32, math.MaxInt32
	maxCX, maxCY := math.MinInt32, math.MinInt32
	maxID := -1
	for _, id := range ids {
		var e ixEntry
		var at geo.Point // where the device is placed
		if k := ix.slotOf(id); k >= 0 && ix.ents[k].from <= now && ix.ents[k].until >= ix.mid {
			// The line stays exact from now through the new mid:
			// slide it along instead of reading the motion again.
			e = ix.ents[k]
			e.x += e.vx * shift
			e.y += e.vy * shift
			at = geo.Point{X: e.x, Y: e.y}
		} else {
			m, ok := src(id, now, ix.mid)
			if !ok {
				continue
			}
			// Placed where the device is at m.At (mid, or the instant
			// nearest mid it is in service), stored as its line
			// through mid.
			at = m.Pos
			ref := m.PosAt(ix.mid)
			e = ixEntry{
				x: ref.X, y: ref.Y, vx: m.Vel.X, vy: m.Vel.Y,
				from: m.From, until: m.Until, id: int32(id),
			}
		}
		cx, cy := ix.colOf(at.X), ix.rowOf(at.Y)
		minCX, maxCX = min(minCX, cx), max(maxCX, cx)
		minCY, maxCY = min(minCY, cy), max(maxCY, cy)
		maxID = max(maxID, id)
		ix.placed = append(ix.placed, e)
		ix.cells = append(ix.cells, ixCell{int32(cx), int32(cy)})
	}
	if len(ix.placed) == 0 {
		ix.cols, ix.rows = 0, 0
		ix.ents = ix.ents[:0]
		return
	}
	ix.minCX, ix.minCY = minCX, minCY
	ix.cols, ix.rows = maxCX-minCX+1, maxCY-minCY+1

	// Counting sort into row-major cell order.
	nCells := ix.cols * ix.rows
	ix.cellStart = resize(ix.cellStart, nCells+1)
	ix.cursor = resize(ix.cursor, nCells)
	for i := range ix.cells {
		c := &ix.cells[i]
		c.cx = int32((int(c.cy)-minCY)*ix.cols + int(c.cx) - minCX)
		ix.cellStart[c.cx+1]++
	}
	for c := 1; c <= nCells; c++ {
		ix.cellStart[c] += ix.cellStart[c-1]
	}
	copy(ix.cursor, ix.cellStart)
	n := len(ix.placed)
	if cap(ix.ents) < n {
		//lint:ignore hotpathlint amortized growth to the run's high-water device count; steady state reuses
		ix.ents = make([]ixEntry, n)
	}
	ix.ents = ix.ents[:n]
	if maxID >= len(ix.slot) {
		//lint:ignore hotpathlint amortized growth to the run's highest device id; steady state reuses
		ix.slot = append(ix.slot, make([]int32, maxID+1-len(ix.slot))...)
	}
	for i, c := range ix.cells {
		k := ix.cursor[c.cx]
		ix.cursor[c.cx]++
		ix.ents[k] = ix.placed[i]
		ix.slot[ix.placed[i].id] = k
	}
}

// slotOf returns the index in ents of device id's entry from the last
// rebuild, or -1 when it has none.
func (ix *devIndex) slotOf(id int) int {
	if id >= len(ix.slot) {
		return -1
	}
	k := int(ix.slot[id])
	if k >= len(ix.ents) || ix.ents[k].id != int32(id) {
		return -1
	}
	return k
}

// candidates returns device ids possibly within radius of p at query time,
// in ascending id order for deterministic iteration. The result is a
// superset of the devices within the radius (callers filter by exact
// distance). The result slice is reused across calls; callers must not
// retain it.
//
//mlorass:hotpath
func (ix *devIndex) candidates(now time.Duration, p geo.Point, radius float64) []int {
	out := ix.scratch[:0]
	if !ix.valid {
		ix.scratch = out
		return out
	}
	q := ixQuery{now: now, dt: (now - ix.mid).Seconds(), p: p, tight: radius + posEpsilonM}
	q.tight2 = q.tight * q.tight
	if ix.cols > 0 {
		out = ix.scan(out, &q)
	}
	out = ix.keep(out, ix.pending, &q)
	// A dozen survivors in cell order: insertion sort is the cheapest
	// sort.
	for i := 1; i < len(out); i++ {
		id, j := out[i], i
		for ; j > 0 && out[j-1] > id; j-- {
			out[j] = out[j-1]
		}
		out[j] = id
	}
	ix.scratch = out
	return out
}

// ixQuery is one query's constants.
type ixQuery struct {
	now           time.Duration
	dt            float64 // now − mid, seconds
	p             geo.Point
	tight, tight2 float64 // radius + ε, squared
}

// scan appends to out, in cell order, the indexed devices whose lines pass
// the filter, visiting the cells within reach row by row.
//
//mlorass:hotpath
func (ix *devIndex) scan(out []int, q *ixQuery) []int {
	p := q.p
	reach := q.tight + ix.maxSpeedMPS*math.Abs(q.dt)
	reach2 := reach * reach
	cy0 := max(ix.rowOf(p.Y-reach), ix.minCY)
	cy1 := min(ix.rowOf(p.Y+reach), ix.minCY+ix.rows-1)
	for cy := cy0; cy <= cy1; cy++ {
		// The row's cells within reach: the chord of the reach circle
		// across the row band's nearest edge.
		dy := 0.0
		if lo := float64(cy) * ix.rowM; p.Y < lo {
			dy = lo - p.Y
		} else if hi := lo + ix.rowM; p.Y > hi {
			dy = p.Y - hi
		}
		half := math.Sqrt(max(reach2-dy*dy, 0))
		cx0 := max(ix.colOf(p.X-half), ix.minCX)
		cx1 := min(ix.colOf(p.X+half), ix.minCX+ix.cols-1)
		if cx0 > cx1 {
			continue
		}
		row := (cy-ix.minCY)*ix.cols - ix.minCX
		out = ix.keep(out, ix.ents[ix.cellStart[row+cx0]:ix.cellStart[row+cx1+1]], q)
	}
	return out
}

// keep appends the entries whose line at the query instant lies within
// the tight radius of the query point, or within the slack their span
// allows when the instant lies off it.
//
//mlorass:hotpath
func (ix *devIndex) keep(out []int, ents []ixEntry, q *ixQuery) []int {
	for i := range ents {
		e := &ents[i]
		ex := e.x + e.vx*q.dt - q.p.X
		ey := e.y + e.vy*q.dt - q.p.Y
		if d2 := ex*ex + ey*ey; d2 <= q.tight2 || ix.offSpan(e, q.now, d2, q.tight) {
			out = append(out, int(e.id))
		}
	}
	return out
}

// offSpan reports whether an entry whose line misses the tight radius may
// still be in range because now lies off the line's exact span.
func (ix *devIndex) offSpan(e *ixEntry, now time.Duration, d2, tight float64) bool {
	// Compared before subtracting: a stationary line's span runs to the
	// ends of time.Duration, where the difference would overflow.
	var off time.Duration
	switch {
	case now > e.until:
		off = now - e.until
	case now < e.from:
		off = e.from - now
	default:
		return false
	}
	r := tight + 2*ix.maxSpeedMPS*off.Seconds()
	return d2 <= r*r
}

// activate adds a device entering service at now, once per entry: until
// the next rebuild every query checks its line alongside the grid's. Before
// the first rebuild there is nothing to add to — that rebuild reads the
// caller's active list.
//
//mlorass:hotpath
func (ix *devIndex) activate(id int, now time.Duration, src motionSource) {
	if !ix.valid {
		return
	}
	m, ok := src(id, now, ix.mid)
	if !ok {
		return
	}
	ref := m.PosAt(ix.mid)
	ix.pending = append(ix.pending, ixEntry{
		x: ref.X, y: ref.Y, vx: m.Vel.X, vy: m.Vel.Y,
		from: m.From, until: m.Until, id: int32(id),
	})
}

// resize returns s with exactly n zeroed elements, reusing capacity.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}
