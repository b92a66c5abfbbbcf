// Package netserver implements the LoRaWAN network server: the single
// backend all gateways feed into over their (instant, reliable) Ethernet
// backhaul (Sec. VII-A4).
//
// The server deduplicates messages received through multiple gateways,
// issues acknowledgements (assumed instantaneous and always successful, as
// in the paper), and keeps the delivery ledger the evaluation metrics read:
// per-message end-to-end delay, hop counts, and arrival times for the
// throughput time series. The ledger stores one compact record per
// delivered message in fixed-size pages that are never copied, and
// Deliveries reads them in place. An optional Observer watches the ledger
// as it grows, which is how the telemetry layer streams delay histograms
// and per-packet deliver/dedup trace records without a post-run pass.
package netserver

import (
	"fmt"
	"iter"
	"math"
	"time"

	"mlorass/internal/lorawan"
)

// Delivery records one message's first arrival at the server.
type Delivery struct {
	// MessageID identifies the application message, and through its
	// high word the device that generated it (see lorawan.Message.ID).
	MessageID uint64
	// Created is the message generation time.
	Created time.Duration
	// Arrived is the first server reception time.
	Arrived time.Duration
	// Hops is the total number of wireless hops the winning copy took:
	// device-to-device handovers plus the final device-to-gateway uplink
	// (so a direct uplink counts 1, matching Fig. 12).
	Hops int
	// Gateway is the index of the gateway that delivered the first copy.
	Gateway int
}

// Delay returns the end-to-end delay δt = t_g − t_d (Sec. VII-B).
func (d Delivery) Delay() time.Duration { return d.Arrived - d.Created }

// record is a Delivery as the ledger stores it: 32 bytes instead of 40,
// because hop and gateway counts fit in 32 bits.
type record struct {
	id               uint64
	created, arrived time.Duration
	hops, gw         int32
}

func (r *record) delivery() Delivery {
	return Delivery{
		MessageID: r.id,
		Created:   r.created,
		Arrived:   r.arrived,
		Hops:      int(r.hops),
		Gateway:   int(r.gw),
	}
}

// Observer watches the ledger in arrival order. Implementations must not
// call back into the server.
//
// Callbacks are an event log, not the final ledger: Delivered fires with
// the first copy's Hops/Gateway, and a later same-instant copy that wins
// the hop tie-break (see Ingest) surfaces only as a Duplicate callback
// while the ledger record is amended in place. Consumers needing the
// settled hop counts range over Deliveries() after the run; the streamed
// delay is unaffected (both copies share the arrival instant).
type Observer interface {
	// Delivered fires when a message's first copy is accepted.
	Delivered(d Delivery)
	// Duplicate fires when a redundant copy is discarded (or merely
	// improves an existing entry's hop count on a same-instant tie).
	Duplicate(now time.Duration, gw int, m lorawan.Message)
}

// Server is the network server. Not safe for concurrent use (it lives on
// the single-threaded simulator).
//
// The ledger keeps its records in arrival order, in pages of recordPage
// records. A page is allocated when its first record is written, so the
// ledger holds at most one partly filled page and never copies a record.
//
// The ledger's ID table is dense: it has one row per device, named by the
// ID's high word less one, and one column per message of that device, the
// low word. A row is cut into pages of idPage columns, allocated when a
// column in them is first delivered, so a row never moves as it grows and a
// lookup is three indexed loads. The table stays O(IDs numbered) because
// devices number their messages consecutively (see lorawan.Message.ID);
// copies may arrive in any order. An ID landing more than maxIDLeap past
// its row's end breaks the contract and panics rather than allocating for
// the gap, as does one naming a device outside the fleet.
type Server struct {
	// rows[ID>>32-1][c/idPage][c%idPage], c = ID&0xffffffff, is a
	// delivered message's ledger index plus one; 0, or a nil page, while
	// the message is undelivered.
	rows [][]*[idPage]int32
	// records[i/recordPage][i%recordPage] is ledger entry i, for i < count.
	records    []*[recordPage]record
	count      int
	duplicates uint64
	obs        Observer
	// mac is the optional MAC control plane (ADR + downlink scheduling);
	// nil for the paper's uplink-only traffic model.
	mac *MAC
}

const (
	// recordPage is the records per ledger page: 32 KiB, so a paper-scale
	// day's ~100k deliveries fill about a hundred pages.
	recordPage = 1024
	// idPage is the columns per page of an ID-table row: small enough
	// that the tile engine's per-device rows, a few dozen messages each,
	// waste little of their last page.
	idPage = 64
	// maxIDLeap bounds how far past its row's end an ingested ID may land.
	// Consecutive counts stay far inside it; a sparse or hashed ID scheme
	// trips it on its first few IDs.
	maxIDLeap = 1 << 20
)

// New returns an empty server for a fleet of the given number of devices:
// its ID table has one row per device.
func New(devices int) *Server {
	return &Server{rows: make([][]*[idPage]int32, devices)}
}

// SetObserver installs (or, with nil, removes) the ledger observer.
func (s *Server) SetObserver(obs Observer) { s.obs = obs }

// Ingest processes a bundle of messages received by gateway gw at time now.
// It returns how many of them were new (non-duplicate). Duplicates — copies
// already delivered via another gateway or an earlier uplink — are counted
// but not re-recorded, with one refinement: when the duplicate arrives at
// the exact same instant as the recorded first copy (the same-tick
// multi-gateway race, where physical arrival order is undefined and only
// event-queue order decided the winner), the ledger keeps the copy with the
// fewer wireless hops, breaking remaining ties in favour of the earlier
// ingest. This makes Fig. 12's hop statistics independent of gateway
// enumeration order.
//
//mlorass:hotpath
func (s *Server) Ingest(now time.Duration, gw int, msgs []lorawan.Message) int {
	fresh := 0
	for _, m := range msgs {
		slot := s.slot(m.ID)
		if *slot != 0 {
			s.duplicates++
			// Same-instant hop-count tie-break (see above). Late
			// duplicates — now after the recorded arrival — never
			// rewrite history: the ack already committed that record.
			i := int(*slot - 1)
			if r := &s.records[i/recordPage][i%recordPage]; now == r.arrived && m.Hops+1 < int(r.hops) {
				r.hops = int32(m.Hops + 1)
				r.gw = int32(gw)
			}
			if s.obs != nil {
				s.obs.Duplicate(now, gw, m)
			}
			continue
		}
		if s.count%recordPage == 0 {
			//lint:ignore hotpathlint one page per 1,024 deliveries
			s.records = append(s.records, new([recordPage]record))
		}
		r := &s.records[s.count/recordPage][s.count%recordPage]
		s.count++
		*slot = int32(s.count)
		*r = record{
			id:      m.ID,
			created: m.Created,
			arrived: now,
			hops:    int32(m.Hops + 1),
			gw:      int32(gw),
		}
		if s.obs != nil {
			s.obs.Delivered(r.delivery())
		}
		fresh++
	}
	return fresh
}

// slot returns id's cell in the ID table, growing its row to hold it.
//
//mlorass:hotpath
func (s *Server) slot(id uint64) *int32 {
	r, c := id>>32-1, id&math.MaxUint32
	row := s.rows[r]
	if end := uint64(len(row)) * idPage; c >= end {
		if c-end >= maxIDLeap {
			//lint:ignore hotpathlint cold contract panic
			panic(fmt.Sprintf("netserver: message ID %#x lands %d past its row's end; IDs must be dense per row (lorawan.Message.ID)", id, c-end))
		}
		//lint:ignore hotpathlint one page pointer per 64 IDs of a row
		row = append(row, make([]*[idPage]int32, c/idPage+1-uint64(len(row)))...)
		s.rows[r] = row
	}
	page := row[c/idPage]
	if page == nil {
		//lint:ignore hotpathlint one page per 64 IDs of a row
		page = new([idPage]int32)
		row[c/idPage] = page
	}
	return &page[c%idPage]
}

// Delivered reports whether a message has reached the server.
func (s *Server) Delivered(messageID uint64) bool {
	r, c := messageID>>32-1, messageID&math.MaxUint32
	if r >= uint64(len(s.rows)) || c/idPage >= uint64(len(s.rows[r])) {
		return false
	}
	page := s.rows[r][c/idPage]
	return page != nil && page[c%idPage] != 0
}

// Deliveries yields the delivery ledger in arrival order, reading each
// record in place.
func (s *Server) Deliveries() iter.Seq[Delivery] {
	return func(yield func(Delivery) bool) {
		for i := range s.count {
			if !yield(s.records[i/recordPage][i%recordPage].delivery()) {
				return
			}
		}
	}
}

// Count returns the number of distinct delivered messages.
func (s *Server) Count() int { return s.count }

// Duplicates returns the number of duplicate copies discarded.
func (s *Server) Duplicates() uint64 { return s.duplicates }
