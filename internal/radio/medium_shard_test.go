package radio

import (
	"testing"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/rng"
)

func shardTestMedium(t *testing.T) *Medium {
	t.Helper()
	m, err := NewMedium(MediumConfig{
		Loss:           DefaultPathLoss(),
		SensitivityDBm: -1e9,
		CaptureDB:      6,
	})
	if err != nil {
		t.Fatalf("NewMedium: %v", err)
	}
	return m
}

// TestReceiveKeyedMatchesSequentialDraw pins ReceiveKeyed's shadowing to
// one draw from a fresh stream seeded at the key: rng.Seeded(k) equals
// *rng.New(k), so the reception's RSSI is the path-loss RSSI drawn from
// rng.New(key).
func TestReceiveKeyedMatchesSequentialDraw(t *testing.T) {
	const key = uint64(0xfeedface)
	m := shardTestMedium(t)

	gw := geo.Point{X: 400, Y: 250}
	tx := m.Begin(3, geo.Point{X: 0, Y: 0}, 14, 0, time.Second, nil)

	got := m.ReceiveKeyed(tx, gw, key, tx.Start)
	want := DefaultPathLoss().RSSI(14, Meters(tx.Pos.Dist(gw)), rng.New(key))
	if !got.OK() || got.RSSIDBm != want {
		t.Fatalf("ReceiveKeyed(key %#x) = %+v, want a reception at %v (one draw from rng.New(key))", key, got, want)
	}
}

// TestReceiveKeyedOrderIndependent pins the property the sharded engine
// relies on: a keyed receive's outcome does not depend on how many other
// draws the medium made before it.
func TestReceiveKeyedOrderIndependent(t *testing.T) {
	gw := geo.Point{X: 123, Y: 456}

	run := func(extraDraws int) Reception {
		m := shardTestMedium(t)
		for i := 0; i < extraDraws; i++ {
			tx := m.Begin(100+i, geo.Point{X: 5000, Y: 5000}, 14,
				time.Duration(i)*time.Hour, time.Duration(i)*time.Hour+time.Millisecond, nil)
			m.ReceiveKeyed(tx, gw, uint64(i), tx.Start) // earlier receptions
		}
		tx := m.Begin(1, geo.Point{X: 0, Y: 0}, 14, 100*time.Hour, 100*time.Hour+time.Second, nil)
		return m.ReceiveKeyed(tx, gw, rng.Key3(77, 1, 42, 9), tx.Start)
	}

	base := run(0)
	for _, extra := range []int{1, 7, 31} {
		if got := run(extra); got != base {
			t.Fatalf("after %d extra draws: %+v, want %+v", extra, got, base)
		}
	}
}

// TestImportTxInterferesWithoutCounting checks an imported foreign
// transmission collides local receptions exactly like a local Begin, while
// leaving stats.Transmissions untouched so per-shard stats sum to the
// single-medium count.
func TestImportTxInterferesWithoutCounting(t *testing.T) {
	gw := geo.Point{X: 100, Y: 0}

	// Reference: two local overlapping transmissions at equal distance.
	ref := shardTestMedium(t)
	refTx := ref.Begin(1, geo.Point{X: 0, Y: 0}, 14, 0, time.Second, nil)
	ref.Begin(2, geo.Point{X: 200, Y: 0}, 14, 0, time.Second, nil)
	want := ref.ReceiveKeyed(refTx, gw, 5, refTx.Start)

	// Same scene with the interferer imported from a foreign shard.
	m := shardTestMedium(t)
	tx := m.Begin(1, geo.Point{X: 0, Y: 0}, 14, 0, time.Second, nil)
	m.ImportTx(2, geo.Point{X: 200, Y: 0}, 14, 0, time.Second)
	got := m.ReceiveKeyed(tx, gw, 5, tx.Start)

	if got.Outcome != want.Outcome {
		t.Fatalf("imported interferer outcome %v, local interferer outcome %v", got.Outcome, want.Outcome)
	}
	if n := m.Stats().Transmissions; n != 1 {
		t.Fatalf("ImportTx counted toward Transmissions: got %d, want 1", n)
	}
	if ref.Stats().Transmissions != 2 {
		t.Fatalf("reference medium transmissions = %d, want 2", ref.Stats().Transmissions)
	}
}

// TestImportTxSelfCopySkipped: a shard importing the sender's own
// transmission back (full-replication merge does this for simplicity) must
// not make the sender collide with itself — the From-based self-skip covers
// imported copies, which carry ID 0 while local IDs start at 1.
func TestImportTxSelfCopySkipped(t *testing.T) {
	gw := geo.Point{X: 100, Y: 0}

	solo := shardTestMedium(t)
	soloTx := solo.Begin(1, geo.Point{X: 0, Y: 0}, 14, 0, time.Second, nil)
	want := solo.ReceiveKeyed(soloTx, gw, 11, soloTx.Start)

	m := shardTestMedium(t)
	tx := m.Begin(1, geo.Point{X: 0, Y: 0}, 14, 0, time.Second, nil)
	m.ImportTx(1, geo.Point{X: 0, Y: 0}, 14, 0, time.Second) // own copy echoed back
	got := m.ReceiveKeyed(tx, gw, 11, tx.Start)

	if got != want {
		t.Fatalf("own imported copy changed reception: got %+v, want %+v", got, want)
	}
}

// TestReceiveKeyedPruneEpoch pins the keepSince contract: an interferer that
// overlaps a long frame must survive an interleaved receive of a short frame
// that starts after the interferer ends. A per-frame cutoff (the short
// frame's start) would evict it; a shared epoch must not, or the interferer
// set would depend on which frames share a shard's pool — the divergence
// that broke shard-count invariance at full-day scale.
func TestReceiveKeyedPruneEpoch(t *testing.T) {
	gw := geo.Point{X: 100, Y: 0}
	const epoch = 0 * time.Second // window start shared by every receive

	build := func() (*Medium, *Transmission, *Transmission) {
		m := shardTestMedium(t)
		// Interferer: on air [0, 300ms), strong (close to the receiver).
		m.ImportTx(9, geo.Point{X: 120, Y: 0}, 14, 0, 300*time.Millisecond)
		// Long frame overlapping the interferer: [100ms, 1s).
		long := m.Begin(1, geo.Point{X: 0, Y: 0}, 14, 100*time.Millisecond, time.Second, nil)
		// Short frame starting after the interferer ended: [400ms, 500ms).
		short := m.Begin(2, geo.Point{X: 0, Y: 50}, 14, 400*time.Millisecond, 500*time.Millisecond, nil)
		return m, long, short
	}

	// Direct: the long frame collides with the interferer.
	m, long, _ := build()
	want := m.ReceiveKeyed(long, gw, rng.Key3(7, 1, 0, 1), epoch)
	if want.Outcome != OutcomeCollision {
		t.Fatalf("long frame without interleaving = %v, want collision", want.Outcome)
	}

	// Interleaved: the short frame resolves first (end-time order). With the
	// shared epoch its receive must not evict the still-overlapping
	// interferer out from under the long frame.
	m2, long2, short := build()
	m2.ReceiveKeyed(short, gw, rng.Key3(7, 2, 0, 1), epoch)
	if got := m2.ReceiveKeyed(long2, gw, rng.Key3(7, 1, 0, 1), epoch); got != want {
		t.Fatalf("interleaved short receive changed the long frame's reception: got %+v, want %+v", got, want)
	}
}

// TestImportTxRecycled pins that imported transmissions flow through the
// same prune/pool recycling as local ones (no leak across windows).
func TestImportTxRecycled(t *testing.T) {
	m := shardTestMedium(t)
	for w := 0; w < 100; w++ {
		at := time.Duration(w) * time.Minute
		m.ImportTx(9, geo.Point{X: 1, Y: 1}, 14, at, at+time.Millisecond)
		tx := m.Begin(1, geo.Point{X: 0, Y: 0}, 14, at+time.Second, at+2*time.Second, nil)
		m.ReceiveKeyed(tx, geo.Point{X: 50, Y: 0}, 1, tx.Start)
	}
	if n := m.ActiveCount(); n > 4 {
		t.Fatalf("active list grew to %d entries; imported transmissions not pruned", n)
	}
}
