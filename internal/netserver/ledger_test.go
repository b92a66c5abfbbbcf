package netserver

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"mlorass/internal/lorawan"
)

// refLedger is the map-keyed ledger the dense ID table replaced, kept as
// the reference its behaviour must match.
type refLedger struct {
	seen       map[uint64]int
	deliveries []Delivery
	duplicates uint64
}

func (r *refLedger) ingest(now time.Duration, gw int, msgs []lorawan.Message) int {
	if r.seen == nil {
		r.seen = map[uint64]int{}
	}
	fresh := 0
	for _, m := range msgs {
		if idx, dup := r.seen[m.ID]; dup {
			r.duplicates++
			if d := &r.deliveries[idx]; now == d.Arrived && m.Hops+1 < d.Hops {
				d.Hops = m.Hops + 1
				d.Gateway = gw
			}
			continue
		}
		r.seen[m.ID] = len(r.deliveries)
		r.deliveries = append(r.deliveries, Delivery{
			MessageID: m.ID, Created: m.Created,
			Arrived: now, Hops: m.Hops + 1, Gateway: gw,
		})
		fresh++
	}
	return fresh
}

// ingestOp is one Ingest call: a bundle decoded by gateway gw at at.
type ingestOp struct {
	at   time.Duration
	gw   int
	msgs []lorawan.Message
}

// devID is device dev's message n (see lorawan.Message.ID).
func devID(dev int, n uint32) uint64 { return uint64(dev+1)<<32 | uint64(n) }

// checkLedger replays ops on a Server sized for the devices they name and
// on the map reference, and fails at the first difference in Ingest's fresh
// counts, the collected Deliveries sequence, Duplicates, or Delivered over
// every ID in probe.
func checkLedger(t *testing.T, ops []ingestOp, probe []uint64) {
	t.Helper()
	fleet := 0
	for _, op := range ops {
		for _, m := range op.msgs {
			fleet = max(fleet, int(m.ID>>32))
		}
	}
	s, ref := New(fleet), &refLedger{}
	for i, op := range ops {
		if got, want := s.Ingest(op.at, op.gw, op.msgs), ref.ingest(op.at, op.gw, op.msgs); got != want {
			t.Fatalf("op %d: Ingest fresh = %d, reference %d", i, got, want)
		}
	}
	if got := slices.Collect(s.Deliveries()); !slices.Equal(got, ref.deliveries) {
		t.Fatalf("Deliveries:\n got %+v\nwant %+v", got, ref.deliveries)
	}
	if s.Duplicates() != ref.duplicates || s.Count() != len(ref.deliveries) {
		t.Fatalf("duplicates/count = %d/%d, reference %d/%d",
			s.Duplicates(), s.Count(), ref.duplicates, len(ref.deliveries))
	}
	for _, id := range probe {
		if _, want := ref.seen[id]; s.Delivered(id) != want {
			t.Fatalf("Delivered(%#x) = %v, reference %v", id, !want, want)
		}
	}
}

// TestLedgerMatchesMapReference runs the dense table against the map
// reference over one device's consecutive messages ("serial"), several
// devices' rows, duplicates, out-of-order arrivals and same-instant ties
// across gateways. Its probes include IDs of no device in the fleet.
func TestLedgerMatchesMapReference(t *testing.T) {
	msg := func(id uint64, hops int) lorawan.Message {
		return lorawan.Message{ID: id, Created: time.Duration(id&0xff) * time.Second, Hops: hops}
	}
	probe := []uint64{0, 1, 7, devID(0, 0), devID(0, 1), devID(0, 2), devID(0, 8), devID(0, 99), devID(2, 5), devID(4000, 3), devID(4000, 4), devID(9999, 1), 1 << 62}
	for _, tc := range []struct {
		name string
		ops  []ingestOp
	}{
		{"serial in order", []ingestOp{
			{time.Minute, 0, []lorawan.Message{msg(devID(0, 1), 0), msg(devID(0, 2), 0)}},
			{2 * time.Minute, 1, []lorawan.Message{msg(devID(0, 3), 1)}},
		}},
		{"serial out of order", []ingestOp{
			{time.Minute, 0, []lorawan.Message{msg(devID(0, 7), 0), msg(devID(0, 3), 2)}},
			{2 * time.Minute, 0, []lorawan.Message{msg(devID(0, 1), 1), msg(devID(0, 0), 0)}},
			{3 * time.Minute, 2, []lorawan.Message{msg(devID(0, 3), 0), msg(devID(0, 8), 0)}},
		}},
		{"tile rows interleaved", []ingestOp{
			{time.Second, 0, []lorawan.Message{msg(devID(4000, 3), 0), msg(devID(2, 5), 1)}},
			{time.Second, 1, []lorawan.Message{msg(devID(2, 5), 0), msg(devID(0, 1), 0)}},
			{5 * time.Second, 0, []lorawan.Message{msg(devID(4000, 4), 2), msg(devID(4000, 3), 0)}},
		}},
		{"same-instant ties", []ingestOp{
			{time.Hour, 3, []lorawan.Message{msg(devID(0, 2), 3)}},
			{time.Hour, 1, []lorawan.Message{msg(devID(0, 2), 1)}},
			{time.Hour, 0, []lorawan.Message{msg(devID(0, 2), 1)}},
			{time.Hour, 2, []lorawan.Message{msg(devID(0, 2), 0)}},
			{time.Hour + 1, 4, []lorawan.Message{msg(devID(0, 2), 0)}},
		}},
		{"duplicates in one bundle", []ingestOp{
			{time.Minute, 0, []lorawan.Message{msg(devID(0, 1), 2), msg(devID(0, 1), 0), msg(devID(0, 0), 1)}},
		}},
		{"empty bundles", []ingestOp{
			{0, 0, nil},
			{time.Second, 1, []lorawan.Message{}},
		}},
		{"three record pages", pagedOps(msg)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkLedger(t, tc.ops, probe) })
	}
}

// pagedOps delivers 2*recordPage+500 messages, enough for three record
// pages, in bundles of 16 through two gateways, all at one instant, with
// one long device row interleaved with thirteen short ones. A last copy of
// the very first message then wins the same-instant hop tie-break, amending
// a record on the first page.
func pagedOps(msg func(id uint64, hops int) lorawan.Message) []ingestOp {
	const at = 2 * time.Hour
	ops := []ingestOp{{at, 0, []lorawan.Message{msg(devID(13, 0), 4)}}}
	for n := uint32(1); n < 2*recordPage+500; n++ {
		if n%16 == 1 {
			ops = append(ops, ingestOp{at, int(n/16) % 2, nil})
		}
		id := devID(13, n/2)
		if n%2 == 1 {
			id = devID(int(n%13), n/26)
		}
		op := &ops[len(ops)-1]
		op.msgs = append(op.msgs, msg(id, int(n%3)))
	}
	return append(ops, ingestOp{at, 3, []lorawan.Message{msg(devID(13, 0), 1)}})
}

// TestLedgerRejectsSparseIDs: an ID far past its row's end breaks the
// dense-ID contract and panics instead of allocating for the gap, and one
// naming a device outside the fleet panics too; one just inside the bound
// is accepted.
func TestLedgerRejectsSparseIDs(t *testing.T) {
	s := New(1001)
	if s.Ingest(0, 0, []lorawan.Message{{ID: devID(0, maxIDLeap-1)}, {ID: devID(1000, 1)}}) != 2 {
		t.Fatal("IDs inside the leap bound were not ingested")
	}
	ingest := func(id uint64) (recovered any) {
		defer func() { recovered = recover() }()
		s.Ingest(time.Second, 0, []lorawan.Message{{ID: id}})
		return nil
	}
	for _, id := range []uint64{devID(0, 3*maxIDLeap), devID(1000, 2*maxIDLeap), devID(7, math.MaxUint32)} {
		if r, _ := ingest(id).(string); !strings.Contains(r, "dense per row") {
			t.Errorf("ID %#x: recovered %q, want a dense-ID contract panic", id, r)
		}
	}
	for _, id := range []uint64{3 * maxIDLeap, devID(1001, 1), uint64(2*maxIDLeap) << 32, 1 << 63, 0xdeadbeefcafe} {
		if ingest(id) == nil {
			t.Errorf("ID %#x names no device in the fleet but was ingested", id)
		}
	}
	if s.Count() != 2 || !s.Delivered(devID(0, maxIDLeap-1)) || s.Delivered(1<<63) || s.Delivered(devID(1001, 1)) {
		t.Fatalf("rejected IDs changed the ledger: count %d", s.Count())
	}
}

// FuzzLedger: over arbitrary ingest sequences across device rows, with
// duplicates, out-of-order arrivals and same-instant copies through several
// gateways, the ledger matches the map reference exactly: fresh counts, the
// records read back through slices.Collect(Deliveries()), duplicates and
// Delivered. ledgerOps decodes the bytes; its runs let a short input cross
// a record page and a row's ID pages.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0x81, 0, 0, 1, 0x00, 0, 0, 2, 0x80, 1, 0, 1, 0x80, 2, 3, 0x21})
	f.Add([]byte{0x80, 0, 1, 9, 0x80, 1, 1, 0x49, 0x80, 2, 1, 0x29, 0x83, 0, 5, 0})
	f.Add([]byte{0x8f, 3, 14, 31, 0x01, 0, 14, 30, 0x80, 0, 0, 0, 0x00, 0, 0, 0})
	f.Add(ledgerPagesSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, probe := ledgerOps(data)
		checkLedger(t, ops, probe)
	})
}

// ledgerPagesSeed crosses FuzzLedger's widest boundaries: a run of 1,024
// fresh IDs fills the first record page and device 0's first sixteen ID
// pages, and one message of device 1 opens the second record page. A later
// copy of device 0's is a duplicate; a run in device 5's row spans its
// fourth to sixth ID pages, and a shorter run re-delivers some of them at
// the same instant with fewer hops, amending their records.
var ledgerPagesSeed = []byte{
	0xc0, 0xfc, 0, 0, // new bundle at 0 s via gateway 0: device 0's IDs 0..1023
	0x00, 0, 1, 0x20, // device 1's ID 0, one hop
	0xb5, 1, 0, 7, // new bundle 5 s on via gateway 1: device 0's ID 199 again
	0xf0, 0x1e, 5, 0x61, // new bundle via gateway 2: device 5's IDs 193..320, three hops
	0x70, 0, 5, 0x03, // same bundle: device 5's IDs 195..210 again, no hops
}

// ledgerOps decodes FuzzLedger's bytes into ingest calls, plus the IDs to
// probe with Delivered. Each 4-byte group adds one message, or a run of
// them, to the current bundle:
//
//   - b0's top bit starts a new bundle whose instant advances by b0&0x0f
//     seconds (0 keeps the instant) and whose gateway is b1&3;
//   - b0&0x40 makes the group a run of 16·(b1>>2 + 1) consecutive IDs, up
//     to 1,024: enough for a few groups to cross a record page;
//   - b2&15 is the device;
//   - the column is b3&31 plus 64·((b0>>4)&3), up to 223 (with a run, up
//     to 1,246, so a row's fifth and later ID pages are reachable), and the
//     hop count is b3>>5.
func ledgerOps(data []byte) ([]ingestOp, []uint64) {
	var ops []ingestOp
	var probe []uint64
	at := time.Duration(0)
	for i := 0; i+4 <= len(data); i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		if b0&0x80 != 0 || len(ops) == 0 {
			at += time.Duration(b0&0x0f) * time.Second
			ops = append(ops, ingestOp{at: at, gw: int(b1 & 3)})
		}
		n := 1
		if b0&0x40 != 0 {
			n = 16 * (int(b1>>2) + 1)
		}
		col := uint32(b3&31) + 64*uint32(b0>>4&3)
		op := &ops[len(ops)-1]
		for k := uint32(0); k < uint32(n); k++ {
			id := devID(int(b2&15), col+k)
			op.msgs = append(op.msgs, lorawan.Message{
				ID: id, Created: at - time.Minute, Hops: int(b3 >> 5),
			})
			probe = append(probe, id, id+1, id^1<<32)
		}
	}
	return ops, probe
}

// TestLedgerPagesSeedCrossesPages: FuzzLedger's page seed delivers more
// than a record page of distinct messages and reaches past a row's fourth
// ID page, so the fuzzer starts from both boundaries.
func TestLedgerPagesSeedCrossesPages(t *testing.T) {
	ops, _ := ledgerOps(ledgerPagesSeed)
	distinct := map[uint64]bool{}
	maxCol := uint64(0)
	for _, op := range ops {
		for _, m := range op.msgs {
			distinct[m.ID] = true
			maxCol = max(maxCol, m.ID&0xffffffff)
		}
	}
	if len(distinct) <= recordPage || maxCol < 4*idPage {
		t.Fatalf("seed delivers %d distinct IDs up to column %d; want over %d, and at least %d",
			len(distinct), maxCol, recordPage, 4*idPage)
	}
}

// TestIngestAllocatesPerPage: ingesting a fresh message allocates only when
// it opens a record page or an ID-table page, and a duplicate never
// allocates, over one long device row and seven short ones and across four
// record pages.
func TestIngestAllocatesPerPage(t *testing.T) {
	const at = time.Minute
	s := New(8)
	fresh, dup := make([]lorawan.Message, 1), make([]lorawan.Message, 1)
	ids := make([]uint64, 3*recordPage+100)
	for n := range ids {
		ids[n] = devID(7, uint32(n/2))
		if n%2 == 1 {
			ids[n] = devID(n%7, uint32(n/14))
		}
	}
	opensIDPage := func(id uint64) bool {
		row, c := s.rows[id>>32-1], id&0xffffffff
		return c/idPage >= uint64(len(row)) || row[c/idPage] == nil
	}
	s.Ingest(at, 0, []lorawan.Message{{ID: ids[0]}})
	for n := 1; n < len(ids); n++ {
		fresh[0], dup[0] = lorawan.Message{ID: ids[n], Hops: n % 3}, lorawan.Message{ID: ids[n-1]}
		opensRecords := s.Count()%recordPage == 0
		opens := opensRecords || opensIDPage(ids[n])
		// AllocsPerRun's unmeasured warm-up call ingests the duplicate,
		// so the measured call is the fresh message's ingest alone.
		warm := false
		allocs := testing.AllocsPerRun(1, func() {
			if !warm {
				warm = true
				s.Ingest(at, 1, dup)
				return
			}
			s.Ingest(at, 0, fresh)
		})
		if allocs != 0 && !opens {
			t.Fatalf("ingest %d (ID %#x) opened no page but allocated %v times", n, ids[n], allocs)
		}
		if opensRecords && allocs == 0 {
			t.Fatalf("ingest %d opened a record page but no allocation was counted", n)
		}
	}
	if s.Count() != len(ids) || len(s.records) != 4 {
		t.Fatalf("count %d in %d record pages, want %d in 4", s.Count(), len(s.records), len(ids))
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Ingest(at, 2, dup) }); allocs != 0 {
		t.Fatalf("duplicate ingest allocated %v times", allocs)
	}
}
