package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
		if got := tt.p.DistSq(tt.q); !almostEq(got, tt.want*tt.want, 1e-9) {
			t.Errorf("DistSq(%v,%v) = %v", tt.p, tt.q, got)
		}
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := p.Lerp(q, 0); got != p {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Fatalf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != (Point{5, 10}) {
		t.Fatalf("Lerp(0.5) = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := Square(100)
	if r.Width() != 100 || r.Height() != 100 || r.Area() != 10000 {
		t.Fatalf("Square(100) dims wrong: %+v", r)
	}
	if !r.Contains(Point{50, 50}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 100}) {
		t.Fatal("Contains failed on interior/boundary")
	}
	if r.Contains(Point{-0.01, 50}) || r.Contains(Point{50, 100.01}) {
		t.Fatal("Contains accepted exterior point")
	}
	if got := r.Center(); got != (Point{50, 50}) {
		t.Fatalf("Center = %v", got)
	}
}

func TestEmptyRectArea(t *testing.T) {
	r := Rect{Min: Point{5, 5}, Max: Point{1, 1}}
	if got := r.Area(); got != 0 {
		t.Fatalf("inverted rect area = %v, want 0", got)
	}
}

func TestNewPolylineValidation(t *testing.T) {
	if _, err := NewPolyline(nil); err == nil {
		t.Fatal("nil points accepted")
	}
	if _, err := NewPolyline([]Point{{0, 0}}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := NewPolyline([]Point{{1, 1}, {1, 1}}); err == nil {
		t.Fatal("zero-length polyline accepted")
	}
}

func TestPolylineCopiesInput(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}}
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	pts[0] = Point{999, 999}
	if pl.Start() != (Point{0, 0}) {
		t.Fatal("polyline aliased caller slice")
	}
}

func TestPolylineAt(t *testing.T) {
	pl, err := NewPolyline([]Point{{0, 0}, {10, 0}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Length(); !almostEq(got, 20, 1e-12) {
		t.Fatalf("Length = %v", got)
	}
	tests := []struct {
		d    float64
		want Point
	}{
		{-5, Point{0, 0}},
		{0, Point{0, 0}},
		{5, Point{5, 0}},
		{10, Point{10, 0}},
		{15, Point{10, 5}},
		{20, Point{10, 10}},
		{25, Point{10, 10}},
	}
	for _, tt := range tests {
		got := pl.At(tt.d)
		if !almostEq(got.X, tt.want.X, 1e-9) || !almostEq(got.Y, tt.want.Y, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
}

func TestPolylineEndpoints(t *testing.T) {
	pl, err := NewPolyline([]Point{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumPoints() != 3 {
		t.Fatalf("NumPoints = %d", pl.NumPoints())
	}
	if pl.Start() != (Point{1, 2}) || pl.End() != (Point{5, 6}) {
		t.Fatal("Start/End wrong")
	}
	if pl.Point(1) != (Point{3, 4}) {
		t.Fatal("Point(1) wrong")
	}
}

func TestGridPointsCountAndBounds(t *testing.T) {
	r := Square(24500)
	for _, n := range []int{1, 2, 40, 50, 60, 70, 80, 90, 100, 97} {
		pts := GridPoints(r, n)
		if len(pts) != n {
			t.Fatalf("GridPoints(%d) returned %d points", n, len(pts))
		}
		for _, p := range pts {
			if !r.Contains(p) {
				t.Fatalf("GridPoints(%d) point %v outside area", n, p)
			}
		}
	}
}

func TestGridPointsZero(t *testing.T) {
	if pts := GridPoints(Square(10), 0); pts != nil {
		t.Fatalf("GridPoints(0) = %v, want nil", pts)
	}
}

func TestGridPointsSpread(t *testing.T) {
	// Grid points must be well separated: for 100 points in a 24.5 km
	// square the nearest-neighbour distance should be close to one cell.
	r := Square(24500)
	pts := GridPoints(r, 100)
	minDist := math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d < minDist {
				minDist = d
			}
		}
	}
	if minDist < 2000 {
		t.Fatalf("grid min pairwise distance %v m too small", minDist)
	}
}

// Property: At(d) is always on or between the polyline's bounding coordinates.
func TestQuickPolylineAtWithinBounds(t *testing.T) {
	pl, err := NewPolyline([]Point{{0, 0}, {100, 50}, {200, 0}, {300, 120}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		p := pl.At(math.Mod(math.Abs(d), 500))
		return p.X >= 0 && p.X <= 300 && p.Y >= 0 && p.Y <= 120
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arc-length parameterisation is monotone in distance travelled
// from the start vertex.
func TestQuickPolylineMonotone(t *testing.T) {
	pl, err := NewPolyline([]Point{{0, 0}, {50, 0}, {100, 0}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		da := math.Mod(math.Abs(a), 100)
		db := math.Mod(math.Abs(b), 100)
		if da > db {
			da, db = db, da
		}
		return pl.At(da).X <= pl.At(db).X+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolylineAt(b *testing.B) {
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{float64(i * 10), float64((i % 7) * 3)}
	}
	pl, err := NewPolyline(pts)
	if err != nil {
		b.Fatal(err)
	}
	length := pl.Length()
	b.ResetTimer()
	var sink Point
	for i := 0; i < b.N; i++ {
		sink = pl.At(length * float64(i%1000) / 1000)
	}
	_ = sink
}
