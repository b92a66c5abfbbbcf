package netserver

import (
	"slices"
	"testing"
	"time"

	"mlorass/internal/lorawan"
)

func TestIngestRecordsDelivery(t *testing.T) {
	s := New(8)
	msgs := []lorawan.Message{{ID: devID(4, 1), Created: time.Minute, Hops: 2}}
	if fresh := s.Ingest(10*time.Minute, 3, msgs); fresh != 1 {
		t.Fatalf("fresh = %d", fresh)
	}
	if s.Count() != 1 || !s.Delivered(devID(4, 1)) {
		t.Fatal("delivery not recorded")
	}
	d := slices.Collect(s.Deliveries())[0]
	if d.MessageID != devID(4, 1) || d.Gateway != 3 {
		t.Fatalf("delivery = %+v", d)
	}
	if d.Hops != 3 { // 2 handovers + final uplink
		t.Fatalf("Hops = %d, want 3", d.Hops)
	}
	if d.Delay() != 9*time.Minute {
		t.Fatalf("Delay = %v", d.Delay())
	}
}

func TestIngestDeduplicates(t *testing.T) {
	s := New(8)
	m := lorawan.Message{ID: devID(0, 7)}
	s.Ingest(time.Minute, 0, []lorawan.Message{m})
	if fresh := s.Ingest(2*time.Minute, 1, []lorawan.Message{m}); fresh != 0 {
		t.Fatalf("duplicate counted as fresh: %d", fresh)
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Duplicates() != 1 {
		t.Fatalf("Duplicates = %d", s.Duplicates())
	}
	// First arrival wins: delay measured from the first copy.
	if got := slices.Collect(s.Deliveries())[0].Arrived; got != time.Minute {
		t.Fatalf("Arrived = %v", got)
	}
}

func TestIngestMixedBundle(t *testing.T) {
	s := New(8)
	s.Ingest(0, 0, []lorawan.Message{{ID: devID(0, 1)}, {ID: devID(0, 2)}})
	fresh := s.Ingest(time.Second, 1, []lorawan.Message{{ID: devID(0, 2)}, {ID: devID(0, 3)}, {ID: devID(0, 4)}})
	if fresh != 2 {
		t.Fatalf("fresh = %d, want 2", fresh)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
}

func TestDirectUplinkHopCount(t *testing.T) {
	// Fig. 12: "all LoRaWAN messages have a hop count of 1" — a message
	// that never hopped device-to-device arrives with Hops 1.
	s := New(8)
	s.Ingest(0, 0, []lorawan.Message{{ID: devID(0, 1), Hops: 0}})
	if got := slices.Collect(s.Deliveries())[0].Hops; got != 1 {
		t.Fatalf("direct uplink Hops = %d, want 1", got)
	}
}

func TestDeliveredUnknown(t *testing.T) {
	s := New(8)
	if s.Delivered(devID(0, 99)) {
		t.Fatal("unknown message reported delivered")
	}
}

func TestIngestEmpty(t *testing.T) {
	s := New(8)
	if fresh := s.Ingest(0, 0, nil); fresh != 0 {
		t.Fatalf("fresh = %d", fresh)
	}
	if s.Count() != 0 {
		t.Fatal("empty ingest recorded deliveries")
	}
}

// TestSameTickMultiGateway covers the fan-in race: the same message arriving
// via N gateways at the same instant records exactly one delivery, counts
// N-1 duplicates, and the ledger's gateway is the first ingested (event-queue
// order) when hop counts tie.
func TestSameTickMultiGateway(t *testing.T) {
	s := New(8)
	m := lorawan.Message{ID: devID(2, 5), Created: time.Minute, Hops: 0}
	at := 4 * time.Minute
	for gw := 0; gw < 4; gw++ {
		fresh := s.Ingest(at, gw, []lorawan.Message{m})
		if want := btoi(gw == 0); fresh != want {
			t.Fatalf("gw %d: fresh = %d, want %d", gw, fresh, want)
		}
	}
	if s.Count() != 1 || s.Duplicates() != 3 {
		t.Fatalf("count=%d dups=%d, want 1/3", s.Count(), s.Duplicates())
	}
	d := slices.Collect(s.Deliveries())[0]
	if d.Gateway != 0 || d.Hops != 1 || d.Arrived != at {
		t.Fatalf("delivery = %+v", d)
	}
}

// TestSameTickHopCountTieBreak covers the hop tie-break: when copies of one
// message arrive at the same instant with different hop counts, the ledger
// keeps the fewer-hop path regardless of ingest order, so Fig. 12 statistics
// do not depend on gateway enumeration order.
func TestSameTickHopCountTieBreak(t *testing.T) {
	at := 10 * time.Minute

	// Relayed copy (3 hops) ingested first, direct copy (1 hop) second.
	s := New(8)
	s.Ingest(at, 1, []lorawan.Message{{ID: devID(0, 8), Hops: 2}})
	s.Ingest(at, 2, []lorawan.Message{{ID: devID(0, 8), Hops: 0}})
	d := slices.Collect(s.Deliveries())[0]
	if d.Hops != 1 || d.Gateway != 2 {
		t.Fatalf("tie-break kept %d hops via gw %d, want 1 via 2", d.Hops, d.Gateway)
	}
	if s.Count() != 1 || s.Duplicates() != 1 {
		t.Fatalf("count=%d dups=%d", s.Count(), s.Duplicates())
	}

	// Direct copy first: the later relayed copy must not displace it.
	s = New(8)
	s.Ingest(at, 1, []lorawan.Message{{ID: devID(0, 8), Hops: 0}})
	s.Ingest(at, 2, []lorawan.Message{{ID: devID(0, 8), Hops: 2}})
	d = slices.Collect(s.Deliveries())[0]
	if d.Hops != 1 || d.Gateway != 1 {
		t.Fatalf("worse copy displaced winner: %+v", d)
	}

	// Equal hops: earlier ingest wins (deterministic).
	s = New(8)
	s.Ingest(at, 3, []lorawan.Message{{ID: devID(0, 8), Hops: 1}})
	s.Ingest(at, 4, []lorawan.Message{{ID: devID(0, 8), Hops: 1}})
	if d = slices.Collect(s.Deliveries())[0]; d.Gateway != 3 {
		t.Fatalf("equal-hop tie broke to gw %d, want first ingest 3", d.Gateway)
	}
}

// TestLateDuplicateAfterAck covers the slow-copy case: a duplicate arriving
// after the recorded (acked) delivery is counted but never rewrites the
// ledger, even when it took fewer hops — the ack already committed the entry.
func TestLateDuplicateAfterAck(t *testing.T) {
	s := New(8)
	s.Ingest(5*time.Minute, 0, []lorawan.Message{{ID: devID(0, 3), Created: time.Minute, Hops: 4}})
	before := slices.Collect(s.Deliveries())[0]
	if fresh := s.Ingest(9*time.Minute, 1, []lorawan.Message{{ID: devID(0, 3), Created: time.Minute, Hops: 0}}); fresh != 0 {
		t.Fatalf("late duplicate counted as fresh: %d", fresh)
	}
	after := slices.Collect(s.Deliveries())[0]
	if after != before {
		t.Fatalf("late duplicate rewrote ledger: %+v -> %+v", before, after)
	}
	if s.Duplicates() != 1 || s.Count() != 1 {
		t.Fatalf("count=%d dups=%d", s.Count(), s.Duplicates())
	}
}

// ledgerObserver records Observer callbacks for assertions.
type ledgerObserver struct {
	delivered  []Delivery
	duplicates int
}

func (o *ledgerObserver) Delivered(d Delivery) { o.delivered = append(o.delivered, d) }
func (o *ledgerObserver) Duplicate(now time.Duration, gw int, m lorawan.Message) {
	o.duplicates++
}

// TestObserverStreamsLedger checks the telemetry hook: the observer sees one
// Delivered per fresh message (with final delay fields) and one Duplicate per
// discarded copy, in arrival order.
func TestObserverStreamsLedger(t *testing.T) {
	s := New(8)
	obs := &ledgerObserver{}
	s.SetObserver(obs)
	s.Ingest(2*time.Minute, 0, []lorawan.Message{{ID: devID(0, 1), Created: time.Minute}, {ID: devID(0, 2), Created: time.Minute}})
	s.Ingest(3*time.Minute, 1, []lorawan.Message{{ID: devID(0, 1)}})
	if len(obs.delivered) != 2 || obs.duplicates != 1 {
		t.Fatalf("observer saw %d deliveries, %d dups", len(obs.delivered), obs.duplicates)
	}
	if obs.delivered[0].MessageID != devID(0, 1) || obs.delivered[0].Delay() != time.Minute {
		t.Fatalf("delivered[0] = %+v", obs.delivered[0])
	}
	// Removing the observer silences it.
	s.SetObserver(nil)
	s.Ingest(4*time.Minute, 0, []lorawan.Message{{ID: devID(0, 9)}})
	if len(obs.delivered) != 2 {
		t.Fatal("observer saw events after removal")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
