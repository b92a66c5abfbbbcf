package netserver

import (
	"fmt"
	"testing"
	"time"

	"mlorass/internal/lorawan"
	"mlorass/internal/mac"
	"mlorass/internal/radio"
)

// BenchmarkIngest times the ledger's per-frame work: one full bundle
// (lorawan.MaxBundle messages) decoded by 1 or by 4 gateways, so the first
// copy is fresh and the others are deduplicated. Each ledger takes
// ledgerSpan timed frames and is then replaced; its message IDs restart,
// as each run's do, and benchDevices devices take turns generating them. A
// quick ledger starts empty, about a quick cell's size; a day ledger starts
// holding the ~100k deliveries of a paper-scale day, filled untimed. The fill case times that filling: one op
// takes an empty ledger to 100k deliveries through one gateway, so its B/op
// is the ledger's whole allocation over a paper-scale day.
func BenchmarkIngest(b *testing.B) {
	const ledgerSpan = 4096
	b.Run("ledger=fill", func(b *testing.B) {
		b.ReportAllocs()
		bundle := make([]lorawan.Message, lorawan.MaxBundle)
		for i := 0; i < b.N; i++ {
			s := New(benchDevices)
			for next := uint64(0); s.Count() < 100_000; {
				for j := range bundle {
					next++
					bundle[j] = lorawan.Message{ID: benchID(next), Created: time.Duration(next)}
				}
				s.Ingest(time.Duration(next)+time.Minute, 0, bundle)
			}
		}
	})
	for _, size := range []struct {
		name string
		held int
	}{{"quick", 0}, {"day", 100_000}} {
		for _, gws := range []int{1, 4} {
			b.Run(fmt.Sprintf("ledger=%s/gateways=%d", size.name, gws), func(b *testing.B) {
				b.ReportAllocs()
				bundle := make([]lorawan.Message, lorawan.MaxBundle)
				var s *Server
				var next uint64 // the ledger's last message ID
				frame := func(now time.Duration, gws int) {
					for j := range bundle {
						next++
						bundle[j] = lorawan.Message{ID: benchID(next), Created: now - time.Minute}
					}
					for gw := 0; gw < gws; gw++ {
						s.Ingest(now, gw, bundle)
					}
				}
				fresh := func() {
					s, next = New(benchDevices), 0
					for s.Count() < size.held {
						frame(0, 1)
					}
				}
				fresh()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%ledgerSpan == 0 && i > 0 {
						b.StopTimer()
						fresh()
						b.StartTimer()
					}
					frame(time.Duration(i+1)*time.Second, gws)
				}
				if s.Count() <= size.held {
					b.Fatal("nothing delivered")
				}
			})
		}
	}
}

// benchDevices is the fleet BenchmarkIngest's messages come from: about a
// quick cell's.
const benchDevices = 2048

// benchID numbers message n ≥ 1 of BenchmarkIngest's stream: the devices
// take turns, so each counts its own messages consecutively from 1.
func benchID(n uint64) uint64 {
	n--
	return (n%benchDevices+1)<<32 | (n/benchDevices + 1)
}

// BenchmarkOnUplink times the MAC reaction to one decoded confirmed uplink
// with ADR on: the SNR observation, the ADR decision, and the downlink
// scheduler's RX1/RX2 placement under a per-gateway duty budget.
func BenchmarkOnUplink(b *testing.B) {
	const devices, gateways = 64, 8
	ctrl, err := mac.NewController(mac.DefaultADRConfig(), devices)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := mac.NewScheduler(gateways, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	m := &MAC{ADR: ctrl, Sched: sched}
	timing := RxTiming{
		RX1Delay: time.Second,
		RX2Delay: 2 * time.Second,
		RX1Air:   50 * time.Millisecond,
		RX2Air:   1500 * time.Millisecond,
	}
	planned := 0
	for i := 0; i < b.N; i++ {
		snr := radio.DB(i%23 - 8)
		end := time.Duration(i) * 100 * time.Millisecond
		if _, ok := m.OnUplink(i%devices, i%gateways, snr, lorawan.DR2, 0, true, end, timing); ok {
			planned++
		}
	}
	if b.N > 0 && planned == 0 {
		b.Fatal("no downlink planned")
	}
}
