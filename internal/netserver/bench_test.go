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
// copy is fresh and the others are deduplicated. The ledger is replaced
// every ledgerSpan frames, so it stays near the size of a quick cell's
// ledger instead of growing with b.N.
func BenchmarkIngest(b *testing.B) {
	const ledgerSpan = 4096
	for _, gws := range []int{1, 4} {
		b.Run(fmt.Sprintf("gateways=%d", gws), func(b *testing.B) {
			bundle := make([]lorawan.Message, lorawan.MaxBundle)
			s := New()
			for i := 0; i < b.N; i++ {
				if i%ledgerSpan == 0 && i > 0 {
					b.StopTimer()
					s = New()
					b.StartTimer()
				}
				now := time.Duration(i) * time.Second
				for j := range bundle {
					bundle[j] = lorawan.Message{
						ID:      uint64(i*lorawan.MaxBundle + j),
						Origin:  j,
						Created: now - time.Minute,
					}
				}
				for gw := 0; gw < gws; gw++ {
					s.Ingest(now, gw, bundle)
				}
			}
			if s.Count() == 0 {
				b.Fatal("nothing delivered")
			}
		})
	}
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
