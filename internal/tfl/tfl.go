// Package tfl generates and (de)serialises a synthetic London-bus-network
// dataset: routes, speeds, and a 24-hour timetable of trips.
//
// The paper's evaluation is trace-driven from Transport for London (TFL) open
// timetable data, which this reproduction cannot ship. Instead, this package
// synthesises a dataset whose aggregate properties match what the paper's
// protocols actually depend on:
//
//   - fixed polyline routes inside a 600 km² planar area,
//   - per-route average speeds between 5.4 and 23.1 mph (Sec. III-A),
//   - a diurnal headway profile producing the Fig. 7a active-bus curve
//     (near-empty network overnight, broad daytime plateau),
//   - trip durations distributed over tens of minutes to ~2.5 h (Fig. 7b).
//
// Datasets round-trip through a small CSV format so a real TFL export can be
// converted and dropped in without touching the simulator.
package tfl

import (
	"fmt"
	"math"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/rng"
)

// Day is the timetable horizon.
const Day = 24 * time.Hour

// Route is one bus line: a fixed polyline with an average operating speed.
type Route struct {
	// ID names the route, e.g. "R017".
	ID string
	// Points are the polyline vertices in metres.
	Points []geo.Point
	// SpeedMPS is the route's effective average speed (stop dwell folded
	// in), in metres per second.
	SpeedMPS float64
}

// Polyline builds the arc-length parameterised polyline for the route.
func (r Route) Polyline() (*geo.Polyline, error) {
	pl, err := geo.NewPolyline(r.Points)
	if err != nil {
		return nil, fmt.Errorf("route %s: %w", r.ID, err)
	}
	return pl, nil
}

// Trip is one vehicle's service shift on a route: the bus enters service at
// Start, shuttles back and forth along the route polyline for Duration, and
// then leaves service. Modelling shifts rather than single one-way runs
// matches the TFL data's bus-active-duration distribution (Fig. 7b), where
// vehicles stay on the road from tens of minutes up to many hours.
type Trip struct {
	// ID is unique within the dataset and doubles as the bus identifier:
	// the paper counts a bus as active exactly while it runs a trip.
	ID int
	// RouteID references Dataset.Routes.
	RouteID string
	// Start is the shift start offset from midnight.
	Start time.Duration
	// Duration is the length of the service shift.
	Duration time.Duration
	// Reverse reports whether the first leg runs the route end-to-start.
	Reverse bool
}

// End returns the trip's completion time.
func (t Trip) End() time.Duration { return t.Start + t.Duration }

// ActiveAt reports whether the bus is on the road at instant at.
func (t Trip) ActiveAt(at time.Duration) bool {
	return at >= t.Start && at < t.End()
}

// Dataset is a full synthetic day of the bus network.
type Dataset struct {
	Area   geo.Rect
	Routes []Route
	Trips  []Trip
}

// RouteByID returns the route with the given ID, or false.
func (d *Dataset) RouteByID(id string) (Route, bool) {
	for _, r := range d.Routes {
		if r.ID == id {
			return r, true
		}
	}
	return Route{}, false
}

// ActiveBuses returns the number of trips active at each bin of width bin
// across the 24-hour day: the data behind Fig. 7a.
func (d *Dataset) ActiveBuses(bin time.Duration) []int {
	if bin <= 0 {
		return nil
	}
	n := int(Day / bin)
	counts := make([]int, n)
	for _, tr := range d.Trips {
		first := int(tr.Start / bin)
		last := int((tr.End() - 1) / bin)
		if last >= n {
			last = n - 1
		}
		for b := first; b <= last && b >= 0; b++ {
			counts[b]++
		}
	}
	return counts
}

// TripDurations returns every trip's run time: the data behind Fig. 7b.
func (d *Dataset) TripDurations() []time.Duration {
	out := make([]time.Duration, len(d.Trips))
	for i, tr := range d.Trips {
		out[i] = tr.Duration
	}
	return out
}

// GenConfig parameterises the synthetic dataset generator.
type GenConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Area is the operating area; the default evaluation uses a 24.5 km
	// square (≈600 km², Sec. VII-A1).
	Area geo.Rect
	// NumRoutes is the number of bus lines.
	NumRoutes int
	// PeakHeadway is the departure interval per route and direction at
	// the busiest hour; off-peak headways stretch by the diurnal profile.
	PeakHeadway time.Duration
	// RouteMinM and RouteMaxM bound route lengths in metres.
	RouteMinM float64
	RouteMaxM float64
	// SpeedMinMPS and SpeedMaxMPS bound per-route average speeds. The
	// London bus network averages 5.4–23.1 mph = 2.41–10.33 m/s.
	SpeedMinMPS float64
	SpeedMaxMPS float64
	// HourlyWeight scales service frequency per hour of day, 0..1.
	// A zero-valued array selects DefaultHourlyWeight.
	HourlyWeight [24]float64
}

// DefaultHourlyWeight is a TFL-like diurnal service profile: minimal night
// service, a morning ramp, a broad daytime plateau and an evening decline.
// Values are relative departure rates (1 = peak).
func DefaultHourlyWeight() [24]float64 {
	return [24]float64{
		0.10, 0.06, 0.05, 0.05, 0.08, 0.25, // 00-05
		0.55, 0.90, 1.00, 0.95, 0.90, 0.90, // 06-11
		0.90, 0.90, 0.92, 0.97, 1.00, 1.00, // 12-17
		0.95, 0.80, 0.60, 0.45, 0.30, 0.18, // 18-23
	}
}

// DefaultGenConfig returns the configuration used by the paper-scale
// experiments: 600 km² area and London-bus speed bounds. numRoutes and
// peakHeadway control the fleet size (≈ routes × 2 directions × day/headway
// trips).
func DefaultGenConfig(seed uint64, numRoutes int, peakHeadway time.Duration) GenConfig {
	return GenConfig{
		Seed:         seed,
		Area:         geo.Square(24500),
		NumRoutes:    numRoutes,
		PeakHeadway:  peakHeadway,
		RouteMinM:    5000,
		RouteMaxM:    14000,
		SpeedMinMPS:  2.41,
		SpeedMaxMPS:  10.33,
		HourlyWeight: DefaultHourlyWeight(),
	}
}

// Validate reports configuration errors.
func (c GenConfig) Validate() error {
	if c.Area.Area() <= 0 {
		return fmt.Errorf("tfl: empty area")
	}
	if c.NumRoutes <= 0 {
		return fmt.Errorf("tfl: NumRoutes %d must be positive", c.NumRoutes)
	}
	if c.PeakHeadway <= 0 {
		return fmt.Errorf("tfl: PeakHeadway %v must be positive", c.PeakHeadway)
	}
	if c.RouteMinM <= 0 || c.RouteMaxM < c.RouteMinM {
		return fmt.Errorf("tfl: route length bounds [%v, %v] invalid", c.RouteMinM, c.RouteMaxM)
	}
	if c.SpeedMinMPS <= 0 || c.SpeedMaxMPS < c.SpeedMinMPS {
		return fmt.Errorf("tfl: speed bounds [%v, %v] invalid", c.SpeedMinMPS, c.SpeedMaxMPS)
	}
	return nil
}

// Generate builds a deterministic synthetic dataset from the configuration.
func Generate(cfg GenConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	weights := cfg.HourlyWeight
	if weightsZero(weights) {
		weights = DefaultHourlyWeight()
	}
	r := rng.New(cfg.Seed)
	ds := &Dataset{Area: cfg.Area}

	routeRNG := r.Split()
	for i := 0; i < cfg.NumRoutes; i++ {
		route := genRoute(routeRNG, cfg, i)
		ds.Routes = append(ds.Routes, route)
	}

	tripRNG := r.Split()
	nextID := 0
	for _, route := range ds.Routes {
		if _, err := route.Polyline(); err != nil {
			return nil, err
		}
		for _, reverse := range []bool{false, true} {
			// Offset the two directions by half a headway so they
			// interleave like a real timetable.
			t := time.Duration(0)
			if reverse {
				t = cfg.PeakHeadway / 2
			}
			for t < Day {
				hour := int(t / time.Hour)
				if hour > 23 {
					hour = 23
				}
				w := weights[hour]
				if w <= 0.01 {
					w = 0.01
				}
				headway := time.Duration(float64(cfg.PeakHeadway) / w)
				ds.Trips = append(ds.Trips, Trip{
					ID:       nextID,
					RouteID:  route.ID,
					Start:    t + time.Duration(tripRNG.Uniform(0, 30))*time.Second,
					Duration: shiftDuration(tripRNG),
					Reverse:  reverse,
				})
				nextID++
				t += headway
			}
		}
	}
	return ds, nil
}

// shiftDuration draws a vehicle's service-shift length: log-normal with a
// ~2.5 h median, clamped to [30 min, 10 h]. The resulting distribution
// reproduces the Fig. 7b spread of bus active durations.
func shiftDuration(r *rng.Source) time.Duration {
	const medianSec = 9000 // 2.5 h
	sec := r.LogNormal(math.Log(medianSec), 0.55)
	if sec < 1800 {
		sec = 1800
	}
	if sec > 36000 {
		sec = 36000
	}
	return time.Duration(sec * float64(time.Second))
}

func weightsZero(w [24]float64) bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

// genRoute draws one route: a mostly straight corridor polyline with gentle
// turns, clamped to the area, plus a speed drawn from the configured band.
//
// Corridor-shaped routes matter for the evaluation: like real London bus
// lines, each route has a *persistent* spatial relationship to the gateway
// grid. Some corridors run close to gateways and their buses enjoy frequent
// sink contact; others thread between grid cells and their buses stay
// disconnected for long stretches — precisely the heterogeneity that makes
// contact-aware forwarding at route crossings worthwhile (Sec. VII-B's
// observation that gateway accessibility per route drives performance).
func genRoute(r *rng.Source, cfg GenConfig, idx int) Route {
	targetLen := r.Uniform(cfg.RouteMinM, cfg.RouteMaxM)
	// Start away from the border so routes spread over the whole area.
	margin := 0.05
	start := geo.Point{
		X: cfg.Area.Min.X + r.Uniform(margin, 1-margin)*cfg.Area.Width(),
		Y: cfg.Area.Min.Y + r.Uniform(margin, 1-margin)*cfg.Area.Height(),
	}
	heading := r.Uniform(0, 2*math.Pi)
	pts := []geo.Point{start}
	total := 0.0
	cur := start
	for total < targetLen {
		segLen := r.Uniform(500, 1200)
		next := geo.Point{
			X: cur.X + segLen*math.Cos(heading),
			Y: cur.Y + segLen*math.Sin(heading),
		}
		if !cfg.Area.Contains(next) {
			// Bounce: turn back toward the area centre.
			c := cfg.Area.Center()
			heading = math.Atan2(c.Y-cur.Y, c.X-cur.X) + r.Uniform(-0.5, 0.5)
			continue
		}
		pts = append(pts, next)
		total += segLen
		cur = next
		heading += r.Uniform(-0.18, 0.18) // near-straight corridors
	}
	return Route{
		ID:       fmt.Sprintf("R%03d", idx),
		Points:   pts,
		SpeedMPS: r.Uniform(cfg.SpeedMinMPS, cfg.SpeedMaxMPS),
	}
}
