package radio

import (
	"fmt"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/rng"
)

// Outcome classifies the result of attempting to receive a transmission.
type Outcome int

// Reception outcomes.
const (
	// OutcomeReceived means the frame was decoded successfully.
	OutcomeReceived Outcome = iota + 1
	// OutcomeOutOfRange means the receiver was beyond the hard
	// connectivity gate (the paper's fixed 0.5/1 km ranges).
	OutcomeOutOfRange
	// OutcomeBelowSensitivity means the RSSI after path loss and
	// shadowing fell below the spreading factor's sensitivity.
	OutcomeBelowSensitivity
	// OutcomeCollision means an overlapping same-channel transmission
	// destroyed the frame (no capture).
	OutcomeCollision
)

// String names the outcome for reports and test failures.
func (o Outcome) String() string {
	switch o {
	case OutcomeReceived:
		return "received"
	case OutcomeOutOfRange:
		return "out-of-range"
	case OutcomeBelowSensitivity:
		return "below-sensitivity"
	case OutcomeCollision:
		return "collision"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Reception is the result of one receive attempt, including the RSSI the
// receiver observed (valid for every outcome except OutcomeOutOfRange).
type Reception struct {
	Outcome Outcome
	RSSIDBm DBm
}

// OK reports whether the frame was decoded.
func (r Reception) OK() bool { return r.Outcome == OutcomeReceived }

// Transmission is one frame on the air. Payload is opaque to the medium; the
// MAC layer stores its frame there.
type Transmission struct {
	ID       uint64
	From     int
	Pos      geo.Point
	PowerDBm DBm
	Start    time.Duration
	End      time.Duration
	Payload  any
}

// MediumConfig parameterises the shared channel.
type MediumConfig struct {
	// Loss is the path-loss model.
	Loss PathLoss
	// SensitivityDBm is the receiver sensitivity (per the configured SF).
	SensitivityDBm DBm
	// CaptureDB is the co-channel rejection: a frame survives overlap if
	// its RSSI exceeds the strongest interferer by at least this margin.
	// FLoRa and most LoRa studies use 6 dB.
	CaptureDB DB
	// MaxRangeM is a hard connectivity gate in metres; 0 disables it.
	// The paper gates device↔gateway links at 1 km and device↔device
	// links at 0.5 km (urban) or 1 km (rural).
	MaxRangeM Meters
}

// Medium is a single shared LoRa channel: it tracks in-flight transmissions
// and answers receive queries with collision and capture modelling. All
// nodes in the paper's evaluation share one channel and one SF, so one
// Medium instance (per link class) models the whole network. Not safe for
// concurrent use; it lives on the single-threaded simulator.
type Medium struct {
	cfg    MediumConfig
	active []*Transmission
	nextID uint64

	// pool recycles Transmission values pruned from the active list, so
	// steady-state Begin calls allocate nothing.
	pool []*Transmission

	// Stats counts outcomes for the overhead/diagnostics reports.
	stats MediumStats
}

// MediumStats aggregates channel-level counters.
type MediumStats struct {
	Transmissions    uint64
	Receptions       uint64
	Collisions       uint64
	BelowSensitivity uint64
	OutOfRange       uint64
}

// Merge adds o's counters into s.
func (s *MediumStats) Merge(o MediumStats) {
	s.Transmissions += o.Transmissions
	s.Receptions += o.Receptions
	s.Collisions += o.Collisions
	s.BelowSensitivity += o.BelowSensitivity
	s.OutOfRange += o.OutOfRange
}

// NewMedium builds a medium; it panics only on programmer error (invalid
// path-loss model), reported as error instead.
func NewMedium(cfg MediumConfig) (*Medium, error) {
	if err := cfg.Loss.Validate(); err != nil {
		return nil, err
	}
	if cfg.CaptureDB < 0 {
		return nil, fmt.Errorf("radio: capture threshold %v must be non-negative", cfg.CaptureDB)
	}
	return &Medium{cfg: cfg}, nil
}

// Config returns the medium's configuration.
func (m *Medium) Config() MediumConfig { return m.cfg }

// Stats returns a copy of the channel counters.
func (m *Medium) Stats() MediumStats { return m.stats }

// Begin registers a transmission that occupies the channel from start to
// end. The returned Transmission must be passed to ReceiveKeyed by
// interested receivers at its end time; old transmissions are pruned lazily.
//
// The medium owns the returned Transmission: once it has ended and a later
// ReceiveKeyed prunes it, the value is recycled by a subsequent Begin. Callers
// must not retain the pointer past the event that resolves the
// transmission (virtual time reaching End).
//
//mlorass:hotpath
func (m *Medium) Begin(from int, pos geo.Point, power DBm, start, end time.Duration, payload any) *Transmission {
	m.nextID++
	var tx *Transmission
	if n := len(m.pool); n > 0 {
		tx = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
	} else {
		//lint:ignore hotpathlint pool warm-up only: steady state recycles pruned transmissions
		tx = &Transmission{}
	}
	*tx = Transmission{
		ID:       m.nextID,
		From:     from,
		Pos:      pos,
		PowerDBm: power,
		Start:    start,
		End:      end,
		Payload:  payload,
	}
	m.active = append(m.active, tx)
	m.stats.Transmissions++
	return tx
}

// prune recycles transmissions that ended strictly before cutoff, keeping
// the active list short. Called internally from ReceiveKeyed.
//
//mlorass:hotpath
func (m *Medium) prune(cutoff time.Duration) {
	keep := m.active[:0]
	for _, tx := range m.active {
		if tx.End >= cutoff {
			keep = append(keep, tx)
		} else {
			m.pool = append(m.pool, tx)
		}
	}
	// Zero the tail so the active list holds no duplicate references.
	for i := len(keep); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = keep
}

// ActiveCount returns the number of transmissions still tracked (diagnostic).
func (m *Medium) ActiveCount() int { return len(m.active) }

// ImportTx registers a transmission owned by another medium instance (a
// foreign simulation shard) so local receive queries see it as an
// interferer. It does not count toward stats.Transmissions — the owning
// shard's Begin already did — so summed per-shard stats match a single
// shared medium. Local IDs start at 1 and imported copies keep ID 0; the
// capture scan's From-based self-skip covers both.
//
//mlorass:hotpath
func (m *Medium) ImportTx(from int, pos geo.Point, power DBm, start, end time.Duration) {
	var tx *Transmission
	if n := len(m.pool); n > 0 {
		tx = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
	} else {
		//lint:ignore hotpathlint pool warm-up only: steady state recycles pruned transmissions
		tx = &Transmission{}
	}
	*tx = Transmission{
		From:     from,
		Pos:      pos,
		PowerDBm: power,
		Start:    start,
		End:      end,
	}
	m.active = append(m.active, tx)
}

// ReceiveKeyed evaluates whether a receiver at rxPos decodes tx. Call it at
// the transmission's end time so all overlapping interferers are registered.
// The shadowing draw comes from a stream derived from key: keys mixed from
// intrinsic identities (seed, sender, frame sequence, receiver) make the
// draw independent of the order receptions are resolved in, which is what
// lets tiled runs produce tile-count-invariant results.
//
// Transmissions ending before keepSince are evicted before the capture
// scan. The cutoff must not depend on execution order: a per-frame cutoff
// such as tx.Start lets a short frame that starts late but resolves early
// evict interferers that still overlap a longer, later-resolving frame, so
// the interferer set would depend on which frames share a tile's pool.
// Callers pass an epoch all tiles share (the tile engine's window start),
// making the interferer set a pure function of the global transmission
// history.
//
//mlorass:hotpath
func (m *Medium) ReceiveKeyed(tx *Transmission, rxPos geo.Point, key uint64, keepSince time.Duration) Reception {
	m.prune(keepSince)
	shadow := rng.Seeded(key)

	dist := Meters(tx.Pos.Dist(rxPos))
	if m.cfg.MaxRangeM > 0 && dist > m.cfg.MaxRangeM {
		m.stats.OutOfRange++
		return Reception{Outcome: OutcomeOutOfRange}
	}

	rssi := m.cfg.Loss.RSSI(tx.PowerDBm, dist, &shadow)
	if rssi < m.cfg.SensitivityDBm {
		m.stats.BelowSensitivity++
		return Reception{Outcome: OutcomeBelowSensitivity, RSSIDBm: rssi}
	}

	// Capture check against the strongest overlapping interferer. Mean
	// RSSI (no extra shadowing draw) keeps interference deterministic and
	// symmetric across receivers.
	strongest := DBm(-1e9)
	for _, other := range m.active {
		if other.ID == tx.ID || other.From == tx.From {
			continue
		}
		if other.End <= tx.Start || other.Start >= tx.End {
			continue
		}
		ir := m.cfg.Loss.MeanRSSI(other.PowerDBm, Meters(other.Pos.Dist(rxPos)))
		if ir > strongest {
			strongest = ir
		}
	}
	if strongest > -1e9 && rssi.Sub(strongest) < m.cfg.CaptureDB {
		m.stats.Collisions++
		return Reception{Outcome: OutcomeCollision, RSSIDBm: rssi}
	}

	m.stats.Receptions++
	return Reception{Outcome: OutcomeReceived, RSSIDBm: rssi}
}
