package experiment

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mlorass/internal/mobility"
	"mlorass/internal/tfl"
)

// MobilityModel selects the movement scenario of a run.
type MobilityModel int

// Mobility models. The zero value is the paper's timetabled bus fleet, so
// legacy configs reproduce the paper byte for byte.
const (
	// MobilityBuses is the timetabled London-style bus fleet (tfl dataset).
	MobilityBuses MobilityModel = iota
	// MobilityRandomWaypoint is a fleet of random-waypoint vehicles.
	MobilityRandomWaypoint
	// MobilitySensorGrid is a static, duty-cycled sensor grid.
	MobilitySensorGrid
)

// String names the model (also the cmd/expsweep -scenario vocabulary).
func (m MobilityModel) String() string {
	switch m {
	case MobilityBuses:
		return "buses"
	case MobilityRandomWaypoint:
		return "randomwaypoint"
	case MobilitySensorGrid:
		return "sensorgrid"
	default:
		return fmt.Sprintf("MobilityModel(%d)", int(m))
	}
}

// Valid reports whether the model is one of the defined scenarios.
func (m MobilityModel) Valid() bool {
	return m >= MobilityBuses && m <= MobilitySensorGrid
}

// ParseMobilityModel resolves a -scenario flag value to a model.
func ParseMobilityModel(s string) (MobilityModel, error) {
	switch strings.ToLower(s) {
	case "", "buses", "bus", "tfl":
		return MobilityBuses, nil
	case "randomwaypoint", "rwp":
		return MobilityRandomWaypoint, nil
	case "sensorgrid", "sensors", "grid":
		return MobilitySensorGrid, nil
	default:
		return 0, fmt.Errorf("experiment: unknown mobility scenario %q (want buses | randomwaypoint | sensorgrid)", s)
	}
}

// MobilityConfig selects and parameterises the movement scenario. The zero
// value is the bus fleet with its dataset-driven parameters; the remaining
// fields apply to the new models and take defaults from Normalize.
type MobilityConfig struct {
	// Model picks the scenario.
	Model MobilityModel
	// NumNodes is the node count for the random-waypoint and sensor-grid
	// models (the bus fleet is sized by the dataset).
	NumNodes int
	// SpeedMinMPS and SpeedMaxMPS bound random-waypoint leg speeds.
	SpeedMinMPS float64
	SpeedMaxMPS float64
	// PauseMax bounds the random-waypoint pause at each waypoint.
	PauseMax time.Duration
	// OnWindow and Period set the sensor-grid duty cycle: each sensor is
	// awake for OnWindow out of every Period.
	OnWindow time.Duration
	Period   time.Duration
}

// defaultMobility returns the non-bus models' default parameters: a fleet
// about the size of the default daytime bus plateau, roaming at urban
// traffic speeds or duty-cycling 10 minutes per hour.
func defaultMobility() MobilityConfig {
	return MobilityConfig{
		NumNodes:    150,
		SpeedMinMPS: 2.41,
		SpeedMaxMPS: 10.33,
		PauseMax:    2 * time.Minute,
		OnWindow:    10 * time.Minute,
		Period:      time.Hour,
	}
}

// citySet holds the synthetic cities one sweep generates, keyed by their
// generator config. A city depends only on the seed, route count, headway
// and area, so a sweep's cells of one replication share it: the sweep
// generates each city once and every cell compiles its own fleet from it.
// A set lives as long as its sweep; a nil set generates afresh.
type citySet struct {
	mu     sync.Mutex
	cities map[tfl.GenConfig]*city
}

// city is one generated dataset; once makes concurrent first requests for
// its key wait on a single generation.
type city struct {
	once sync.Once
	ds   *tfl.Dataset
	err  error
}

// dataset returns the city gc generates, generating it on first request.
// Callers share the returned dataset and must not modify it.
func (s *citySet) dataset(gc tfl.GenConfig) (*tfl.Dataset, error) {
	if s == nil {
		return tfl.Generate(gc)
	}
	s.mu.Lock()
	c := s.cities[gc]
	if c == nil {
		if s.cities == nil {
			s.cities = map[tfl.GenConfig]*city{}
		}
		c = &city{}
		s.cities[gc] = c
	}
	s.mu.Unlock()
	c.once.Do(func() { c.ds, c.err = tfl.Generate(gc) })
	return c.ds, c.err
}

// buildFleet assembles the run's mobility scenario. For the bus model it
// returns the dataset too (gateway planning may be route-aware), taken from
// cities when the config does not supply one; the other models return a nil
// dataset.
func buildFleet(cfg *Config, cities *citySet) (*mobility.Fleet, *tfl.Dataset, error) {
	switch cfg.Mobility.Model {
	case MobilityBuses:
		ds := cfg.Dataset
		if ds == nil {
			gc := tfl.DefaultGenConfig(cfg.Seed, cfg.NumRoutes, cfg.PeakHeadway)
			gc.Area = cfg.area()
			var err error
			ds, err = cities.dataset(gc)
			if err != nil {
				return nil, nil, fmt.Errorf("experiment: dataset: %w", err)
			}
		}
		fleet, err := mobility.NewFleet(ds)
		if err != nil {
			return nil, nil, err
		}
		return fleet, ds, nil
	case MobilityRandomWaypoint:
		fleet, err := mobility.NewRandomWaypointFleet(mobility.RandomWaypointConfig{
			Seed:        cfg.Seed ^ 0x52b9,
			Area:        cfg.area(),
			NumNodes:    cfg.Mobility.NumNodes,
			SpeedMinMPS: cfg.Mobility.SpeedMinMPS,
			SpeedMaxMPS: cfg.Mobility.SpeedMaxMPS,
			PauseMax:    cfg.Mobility.PauseMax,
			Horizon:     cfg.Duration,
		})
		return fleet, nil, err
	case MobilitySensorGrid:
		fleet, err := mobility.NewSensorGridFleet(mobility.SensorGridConfig{
			Seed:     cfg.Seed ^ 0x5e45,
			Area:     cfg.area(),
			NumNodes: cfg.Mobility.NumNodes,
			OnWindow: cfg.Mobility.OnWindow,
			Period:   cfg.Mobility.Period,
			Horizon:  cfg.Duration,
		})
		return fleet, nil, err
	default:
		return nil, nil, fmt.Errorf("experiment: invalid mobility model %d", int(cfg.Mobility.Model))
	}
}
