package experiment

import (
	"math"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/lorawan"
	"mlorass/internal/mobility"
)

// devIndex is a kinematic neighbour index over the active devices: a Verlet
// neighbour list whose skin is each device's own motion.
//
// A rebuild, once per period of virtual time, reads every listed device's
// straight-line motion (mobility.Motion) at the middle of the coming period
// and stores the device once, in the row of that mid-period position and
// the bin of the row that holds its x, together with the line. A query at
// instant t around p then
//
//   - scans, in each row within reach = radius + vmax·|t − mid| of p, only
//     the bins on that row's chord of the reach disc, because no device
//     gets further than vmax·|t − mid| from where it was placed;
//   - keeps a device whose line at t lies within radius + ε, widened by
//     2·vmax per second that t lies outside the span over which the line
//     is the device's path: off the span both still move at ≤ vmax from
//     the point where they split;
//   - certifies a kept device whose line at t lies within radius − ε with
//     t inside that span: over the span the device is in service and the
//     line is its path (mobility.Motion), so its exact position at t is
//     within the radius.
//
// A bus's span is its current route segment, cut to its shift, so for most
// devices most of the time the bound is the radius itself, and a query
// certifies most of what it returns. Queries return a superset of the
// devices within the radius that hold data, ascending by id; callers check
// exact distances against live positions for the hits left uncertified,
// and may skip the check for certified ones. A device holds data when its
// queue in the world's slab is non-empty; only a holder can act on an
// overheard broadcast. The filter runs before the line test and costs one
// load from the slab. Callers must not change a queue while they walk a
// query's result.
//
// Rows start at the lowest placement and are rowM high, or taller when
// that would take more than 2n + 8 rows for n devices. Each row is cut into
// ixBinsPerDevice bins per device it holds, of equal width across the x
// its devices span. So a rebuild costs O(devices) time and memory wherever
// the devices are: no term grows with the area they span. Every buffer is
// reused across refreshes: steady-state rebuilds and queries allocate
// nothing.
type devIndex struct {
	rowM        float64 // nominal row height
	period      time.Duration
	maxSpeedMPS float64

	builtAt, mid time.Duration
	valid        bool

	// queues is the world's queue slab, by device id: a query keeps only
	// devices whose queue holds data.
	queues []lorawan.Queue

	// Row r is the band y0 + [r, r+1)·rowH, cut into the bins row[r]
	// describes: binStart[b]..binStart[b+1] delimits bin b's entries in
	// ents, so one row's run of bins is one contiguous stretch of ents.
	y0, rowH, perRow float64
	row              []ixRow
	binStart         []int32
	ents             []ixEntry

	// slot maps a device id to its entry's index in ents, so a rebuild can
	// slide a line that stays exact instead of reading the motion again.
	// Entries of devices missing from the last rebuild fail the id check.
	slot []int32

	// Rebuild scratch, reused across refreshes.
	placed []ixEntry
	keys   []ixKey // placed[i]'s placement
	cursor []int32 // per-bin write cursor

	// pending holds the devices that entered service since the last
	// rebuild, checked by every query besides the rows, so a device
	// overhears from its first instant in service on.
	pending []ixEntry

	scratch []ixHit
}

// ixHit is one query result: a device that may be within the radius, and
// whether the query certified that it is.
type ixHit struct {
	id      int32
	inRange bool
}

// ixEntry is one indexed device: its line as the position at the index's
// mid instant plus a velocity, and the span over which the line is exact.
type ixEntry struct {
	x, y, vx, vy float64
	from, until  time.Duration
	id           int32
}

// ixRow is one row's bins: bin0..bin0+bins-1, each 1/perBin wide from x0
// on, over the x its entries span, x0..x1.
type ixRow struct {
	x0, x1, perBin float64
	bin0, bins     int32
}

// ixKey is a placed entry's placement during a rebuild, then its row and
// bin.
type ixKey struct {
	x, y     float64
	row, bin int32
}

// motionSource reads device id's motion for a rebuild at now: its motion at
// the instant nearest mid at which it is in service. ok is false for a
// device out of service from now on.
type motionSource func(id int, now, mid time.Duration) (mobility.Motion, bool)

// Index tuning, measured on the paper-scale day.
const (
	// ixRowFrac sizes the rows relative to the query radius, and
	// ixBinsPerDevice the bins: narrow bins fit the scanned stretch of a
	// row to the chord; each scanned row costs a square root and two bin
	// lookups.
	ixRowFrac       = 1
	ixBinsPerDevice = 4
	// posEpsilonM widens the line filter, and narrows the certificate,
	// past the floating-point rounding of extrapolated positions, which
	// stays far below a millimetre.
	posEpsilonM = 0.05
)

// ixRebuildEvery is the rebuild period. Queries return a superset of the
// true neighbours whatever its value, so results do not depend on it; it is
// a variable only so a test can prove that.
var ixRebuildEvery = 30 * time.Second

// newDevIndex sizes the rows by the nominal query radius. queues is the
// queue slab, indexed by every id the index will be given.
func newDevIndex(radiusM float64, period time.Duration, maxSpeedMPS float64, queues []lorawan.Queue) *devIndex {
	if radiusM <= 0 {
		radiusM = 1000
	}
	return &devIndex{
		rowM:        radiusM * ixRowFrac,
		period:      period,
		maxSpeedMPS: maxSpeedMPS,
		queues:      queues,
	}
}

// rowOf returns the row of the band holding y; callers clamp it.
func (ix *devIndex) rowOf(y float64) int { return floorInt((y - ix.y0) * ix.perRow) }

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
	ix.keys = ix.keys[:0]
	minY, maxY := math.Inf(1), math.Inf(-1)
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
		minY, maxY = min(minY, at.Y), max(maxY, at.Y)
		maxID = max(maxID, id)
		ix.keys = append(ix.keys, ixKey{x: at.X, y: at.Y})
		ix.placed = append(ix.placed, e)
	}
	n := len(ix.placed)
	if n == 0 {
		ix.row = ix.row[:0]
		ix.ents = ix.ents[:0]
		return
	}
	maxRows := 2*n + 8 // a city fleet spans far fewer
	ix.y0 = minY
	ix.rowH = max(ix.rowM, (maxY-minY)/float64(maxRows-1))
	ix.perRow = 1 / ix.rowH
	rows := min(ix.rowOf(maxY), maxRows-1) + 1

	// Each row's device count and x extent, then its bins: a counting
	// sort by (row, bin) in two passes.
	if cap(ix.row) < rows {
		//lint:ignore hotpathlint amortized growth to the run's high-water row count; steady state reuses
		ix.row = make([]ixRow, rows)
	}
	ix.row = ix.row[:rows]
	for r := range ix.row {
		ix.row[r] = ixRow{x0: math.Inf(1), x1: math.Inf(-1)}
	}
	for i := range ix.keys {
		k := &ix.keys[i]
		k.row = int32(min(ix.rowOf(k.y), rows-1))
		rw := &ix.row[k.row]
		rw.x0, rw.x1 = min(rw.x0, k.x), max(rw.x1, k.x)
		rw.bins += ixBinsPerDevice
	}
	bins := int32(0)
	for r := range ix.row {
		rw := &ix.row[r]
		rw.bin0 = bins
		bins += rw.bins
		if rw.x1 > rw.x0 {
			rw.perBin = float64(rw.bins) / (rw.x1 - rw.x0)
		}
	}
	ix.binStart = resize(ix.binStart, int(bins)+1)
	ix.cursor = resize(ix.cursor, int(bins))
	for i := range ix.keys {
		k := &ix.keys[i]
		k.bin = ix.row[k.row].binOf(k.x)
		ix.binStart[k.bin+1]++
	}
	for b := int32(1); b <= bins; b++ {
		ix.binStart[b] += ix.binStart[b-1]
	}
	copy(ix.cursor, ix.binStart)
	if cap(ix.ents) < n {
		//lint:ignore hotpathlint amortized growth to the run's high-water device count; steady state reuses
		ix.ents = make([]ixEntry, n)
	}
	ix.ents = ix.ents[:n]
	if maxID >= len(ix.slot) {
		//lint:ignore hotpathlint amortized growth to the run's highest device id; steady state reuses
		ix.slot = append(ix.slot, make([]int32, maxID+1-len(ix.slot))...)
	}
	for i, k := range ix.keys {
		at := ix.cursor[k.bin]
		ix.cursor[k.bin]++
		ix.ents[at] = ix.placed[i]
		ix.slot[ix.placed[i].id] = at
	}
}

// binOf returns the row's bin holding x, clamped to the row's bins.
func (rw *ixRow) binOf(x float64) int32 {
	return rw.bin0 + int32(min(max((x-rw.x0)*rw.perBin, 0), float64(rw.bins-1)))
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

// candidates returns the devices holding data that are possibly within
// radius of p at query time, in ascending id order for deterministic
// iteration. The result is a superset of the holders within the radius and
// holds no device whose queue is empty. A hit flagged inRange is certified:
// the device is in service at now and its exact position is within the
// radius, so callers need not read it to filter; callers filter the other
// hits by exact distance. The result slice is reused across calls; callers
// must not retain it.
//
//mlorass:hotpath
func (ix *devIndex) candidates(now time.Duration, p geo.Point, radius float64) []ixHit {
	out := ix.scratch[:0]
	if !ix.valid {
		ix.scratch = out
		return out
	}
	q := ixQuery{now: now, dt: (now - ix.mid).Seconds(), p: p, tight: radius + posEpsilonM, sure2: -1}
	q.tight2 = q.tight * q.tight
	if sure := radius - posEpsilonM; sure >= 0 {
		q.sure2 = sure * sure
	}
	if len(ix.row) > 0 {
		out = ix.scan(out, &q)
	}
	out = ix.keep(out, ix.pending, &q)
	// A dozen survivors in row order: insertion sort is the cheapest
	// sort.
	for i := 1; i < len(out); i++ {
		h, j := out[i], i
		for ; j > 0 && out[j-1].id > h.id; j-- {
			out[j] = out[j-1]
		}
		out[j] = h
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
	sure2         float64 // (radius − ε)², or −1 when the radius is under ε
}

// scan appends to out, row by row, the indexed devices whose lines pass
// the filter among those placed within reach.
//
//mlorass:hotpath
func (ix *devIndex) scan(out []ixHit, q *ixQuery) []ixHit {
	p := q.p
	reach := q.tight + ix.maxSpeedMPS*math.Abs(q.dt)
	reach2 := reach * reach
	r0 := max(ix.rowOf(p.Y-reach), 0)
	r1 := min(ix.rowOf(p.Y+reach), len(ix.row)-1)
	for r := r0; r <= r1; r++ {
		// The row's bins within reach: the chord of the reach circle
		// across the row band's nearest edge.
		dy := 0.0
		if lo := ix.y0 + float64(r)*ix.rowH; p.Y < lo {
			dy = lo - p.Y
		} else if hi := lo + ix.rowH; p.Y > hi {
			dy = p.Y - hi
		}
		half := math.Sqrt(max(reach2-dy*dy, 0))
		rw := &ix.row[r]
		if p.X+half < rw.x0 || p.X-half > rw.x1 {
			continue // the chord misses the row's devices (or the row is empty)
		}
		b0, b1 := rw.binOf(p.X-half), rw.binOf(p.X+half)
		out = ix.keep(out, ix.ents[ix.binStart[b0]:ix.binStart[b1+1]], q)
	}
	return out
}

// keep appends the entries of devices holding data whose line at the query
// instant lies within the tight radius of the query point, or within the
// slack their span allows when the instant lies off it. It certifies those
// whose line lies within the sure radius at an instant on their span.
//
//mlorass:hotpath
func (ix *devIndex) keep(out []ixHit, ents []ixEntry, q *ixQuery) []ixHit {
	for i := range ents {
		e := &ents[i]
		if ix.queues[e.id].Len() == 0 {
			continue
		}
		ex := e.x + e.vx*q.dt - q.p.X
		ey := e.y + e.vy*q.dt - q.p.Y
		if d2 := ex*ex + ey*ey; d2 <= q.tight2 || ix.offSpan(e, q.now, d2, q.tight) {
			sure := d2 <= q.sure2 && e.from <= q.now && q.now <= e.until
			out = append(out, ixHit{id: e.id, inRange: sure})
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
// the next rebuild every query checks its line alongside the rows'. Before
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
