// Package geo provides the planar geometry primitives the mobility and radio
// substrates are built on: points, segments, arc-length parameterised
// polylines, rectangles, and uniform grid placement.
//
// All coordinates are metres in a local planar frame. The paper's 600 km²
// London evaluation area maps to a square roughly 24.5 km on each side; at
// that scale a planar approximation of the Earth's surface introduces less
// error than LoRa shadowing, so no geodesic maths is required.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in metres in the local planar frame.
type Point struct {
	X float64
	Y float64
}

// String renders the point with centimetre precision for logs.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance in metres between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance, avoiding the square root on
// hot paths such as neighbourhood queries.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max the
// upper-right; a Rect with Max components below Min is empty.
type Rect struct {
	Min Point
	Max Point
}

// Square returns a square of the given side length anchored at the origin.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area in square metres; empty rects report 0.
func (r Rect) Area() float64 {
	w, h := r.Width(), r.Height()
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Polyline is an open chain of points with a precomputed arc-length
// parameterisation, supporting O(log n) position lookup by distance along the
// line. Construct with NewPolyline.
type Polyline struct {
	pts []Point
	// cum[i] is the arc length from pts[0] to pts[i]; cum[0] == 0.
	cum []float64
}

// NewPolyline builds a polyline from at least two points. The input slice is
// copied. It returns an error when fewer than two points are supplied or when
// the total length is zero (all points coincident).
func NewPolyline(pts []Point) (*Polyline, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("geo: polyline needs >= 2 points, got %d", len(pts))
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	cum := make([]float64, len(cp))
	for i := 1; i < len(cp); i++ {
		cum[i] = cum[i-1] + cp[i-1].Dist(cp[i])
	}
	if cum[len(cum)-1] == 0 {
		return nil, fmt.Errorf("geo: polyline has zero length")
	}
	return &Polyline{pts: cp, cum: cum}, nil
}

// Length returns the total arc length in metres.
func (pl *Polyline) Length() float64 { return pl.cum[len(pl.cum)-1] }

// NumPoints returns the number of vertices.
func (pl *Polyline) NumPoints() int { return len(pl.pts) }

// Point returns vertex i.
func (pl *Polyline) Point(i int) Point { return pl.pts[i] }

// Start returns the first vertex.
func (pl *Polyline) Start() Point { return pl.pts[0] }

// End returns the last vertex.
func (pl *Polyline) End() Point { return pl.pts[len(pl.pts)-1] }

// At returns the position at arc-length distance d from the start. Distances
// below zero clamp to the start and beyond Length() clamp to the end.
func (pl *Polyline) At(d float64) Point {
	if d <= 0 {
		return pl.pts[0]
	}
	if d >= pl.Length() {
		return pl.pts[len(pl.pts)-1]
	}
	return pl.interpolate(pl.segmentOf(d), d)
}

// AtHint is At with a resumable segment cursor: *hint is the caller's last
// segment index, updated in place. Queries that stay on or near the hinted
// segment — the simulator's pattern, where a vehicle advances a few metres
// between events — resolve by walking at most walkLimit segments instead of
// a full binary search; larger jumps (non-monotonic query time, shift
// wrap-around) fall back to the search. The returned position is identical
// to At's for every d; only the lookup cost differs.
func (pl *Polyline) AtHint(d float64, hint *int) Point {
	if d <= 0 {
		*hint = 0
		return pl.pts[0]
	}
	if d >= pl.Length() {
		*hint = len(pl.pts) - 2
		return pl.pts[len(pl.pts)-1]
	}
	// walkLimit bounds the linear resume before falling back to binary
	// search; small enough that a cold hint costs one extra cache line,
	// large enough that consecutive queries almost never fall back.
	const walkLimit = 8
	i := *hint
	if i < 0 || i > len(pl.pts)-2 {
		i = pl.segmentOf(d)
	} else {
		for steps := 0; ; steps++ {
			if steps > walkLimit {
				i = pl.segmentOf(d)
				break
			}
			if pl.cum[i] > d {
				i--
				continue
			}
			if d >= pl.cum[i+1] {
				i++
				continue
			}
			break
		}
	}
	*hint = i
	return pl.interpolate(i, d)
}

// Segment returns segment i's arc-length span [from, to] and its unit
// direction (zero for a segment of zero length). AtHint's hint is a valid i.
func (pl *Polyline) Segment(i int) (from, to float64, dir Point) {
	from, to = pl.cum[i], pl.cum[i+1]
	if to > from {
		dir = pl.pts[i+1].Sub(pl.pts[i]).Scale(1 / (to - from))
	}
	return from, to, dir
}

// segmentOf binary-searches the segment containing arc length d: the
// largest index i with cum[i] <= d. Callers have excluded the clamped ends.
func (pl *Polyline) segmentOf(d float64) int {
	lo, hi := 0, len(pl.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// interpolate returns the position at arc length d within segment i.
func (pl *Polyline) interpolate(i int, d float64) Point {
	segLen := pl.cum[i+1] - pl.cum[i]
	if segLen == 0 {
		return pl.pts[i]
	}
	t := (d - pl.cum[i]) / segLen
	return pl.pts[i].Lerp(pl.pts[i+1], t)
}

// GridPoints places n points on an approximately square uniform grid inside
// r, cell-centred so no point sits on the boundary. This mirrors the paper's
// uniform-grid gateway deployment (Sec. VII-A6). It returns exactly n points;
// when n is not a perfect rectangle count the trailing row is centred.
func GridPoints(r Rect, n int) []Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n) * r.Width() / math.Max(r.Height(), 1e-9))))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	pts := make([]Point, 0, n)
	cellW := r.Width() / float64(cols)
	cellH := r.Height() / float64(rows)
	for row := 0; row < rows && len(pts) < n; row++ {
		remaining := n - len(pts)
		rowCount := cols
		if remaining < cols {
			rowCount = remaining
		}
		// Centre short rows so the grid stays symmetric.
		offset := (r.Width() - float64(rowCount)*cellW) / 2
		for c := 0; c < rowCount; c++ {
			pts = append(pts, Point{
				X: r.Min.X + offset + (float64(c)+0.5)*cellW,
				Y: r.Min.Y + (float64(row)+0.5)*cellH,
			})
		}
	}
	return pts
}
