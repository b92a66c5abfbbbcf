package telemetry

import (
	"sync"
	"testing"
)

// TestSnapshotConcurrentWithRecording hammers every recording method from
// the single writer goroutine while several readers scrape Snapshot — the
// live /metrics path. Run under -race this locks the Recorder's concurrency
// contract; the final quiesced snapshot must also be exact.
func TestSnapshotConcurrentWithRecording(t *testing.T) {
	r := NewRecorder()
	const iters = 20000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen, lastDelayN uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				// Counters and histogram totals are monotonic under a
				// single writer; a torn read would show them regress.
				if s.Counters.Generated < lastGen {
					t.Errorf("Generated regressed: %d -> %d", lastGen, s.Counters.Generated)
					return
				}
				if s.Delay.N() < lastDelayN {
					t.Errorf("Delay.N regressed: %d -> %d", lastDelayN, s.Delay.N())
					return
				}
				if n := s.Delay.N(); n > 0 {
					if min, max := s.Delay.Min(), s.Delay.Max(); min > max {
						t.Errorf("Delay min %g > max %g at n=%d", min, max, n)
						return
					}
				}
				lastGen, lastDelayN = s.Counters.Generated, s.Delay.N()
			}
		}()
	}

	for i := 0; i < iters; i++ {
		r.AddGenerated()
		r.AddFrame()
		r.AddUplinkDelivery()
		r.AddServerFresh(2)
		r.AddServerDuplicate()
		r.AddRelayHops(3)
		r.AddHandoverAttempt()
		r.AddHandoverSuccess()
		r.AddHandoverMissedMsgs(2)
		r.AddQueueDrops(1)
		r.AddKernelEvent()
		r.AddTraceEvent()
		r.AddDownlink()
		r.AddDownlinkDelivery()
		r.AddDownlinkDrop()
		r.AddAckTimeout()
		r.AddRetransmission()
		r.AddADRCommand()
		r.AddADRApplied()
		r.AddUplinkSF(7 + i%6)
		r.ObserveDelay(float64(i%1000) * 0.01)
		r.ObserveAirtime(0.057)
	}
	close(stop)
	wg.Wait()

	s := r.Snapshot()
	// Every Add method reaches its own field, and the snapshot loads each.
	want := Counters{
		Generated: iters, FramesOnAir: iters, UplinkDeliveries: iters,
		ServerFresh: 2 * iters, ServerDuplicates: iters, RelayHops: 3 * iters,
		HandoverAttempts: iters, HandoverSuccesses: iters, HandoverMissedMsgs: 2 * iters,
		QueueDrops: iters, KernelEvents: iters, TraceEvents: iters,
		Downlinks: iters, DownlinkDeliveries: iters, DownlinkDrops: iters,
		AckTimeouts: iters, Retransmissions: iters, ADRCommands: iters, ADRApplied: iters,
	}
	if s.Counters != want {
		t.Errorf("counters = %+v\nwant %+v", s.Counters, want)
	}
	if s.Delay.N() != iters || s.Airtime.N() != iters {
		t.Errorf("hist n = %d/%d, want %d", s.Delay.N(), s.Airtime.N(), iters)
	}
	if got := s.SF.Total(); got != iters {
		t.Errorf("SF total = %d, want %d", got, iters)
	}
}

// TestLiveSnapshotMatchesSerialAdd locks the quiesced-snapshot exactness:
// recording a value stream through the atomic Recorder must produce the
// bit-identical Histogram a plain Add loop produces.
func TestLiveSnapshotMatchesSerialAdd(t *testing.T) {
	r := NewRecorder()
	var want Histogram
	vals := []float64{0, 0.0001, 0.001, 0.5, 1.0 / 3, 2, 300, 1e6, 5e6, -1}
	for i := 0; i < 997; i++ {
		v := vals[i%len(vals)] * (1 + float64(i)/1000)
		r.ObserveDelay(v)
		want.Add(v)
	}
	got := r.Snapshot().Delay
	if got != want {
		t.Fatalf("live histogram diverged from serial Add:\n got %v\nwant %v", got.String(), want.String())
	}
}

// TestForEachOctaveCum checks the Prometheus projection: cumulative counts
// at octave edges must be consistent, monotone, and end at the total.
func TestForEachOctaveCum(t *testing.T) {
	var h Histogram
	vals := []float64{0, 0.0005, 0.002, 0.01, 1, 1.5, 100, 3e6}
	for _, v := range vals {
		h.Add(v)
	}
	var edges []float64
	var cums []uint64
	h.ForEachOctaveCum(func(le float64, cum uint64) {
		edges = append(edges, le)
		cums = append(cums, cum)
	})
	if len(edges) != histOctaves+2 {
		t.Fatalf("got %d edges, want %d", len(edges), histOctaves+2)
	}
	if edges[0] != 0.0009765625 { // 2^-10: the exact bottom of the layout
		t.Errorf("first edge = %v, want 2^-10", edges[0])
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Fatalf("cumulative counts not monotone at %d: %v", i, cums)
		}
	}
	if cums[0] != 2 { // 0 and 0.0005 are below 2^-10
		t.Errorf("underflow cum = %d, want 2", cums[0])
	}
	if last := cums[len(cums)-1]; last != uint64(len(vals)) {
		t.Errorf("+Inf cum = %d, want %d", last, len(vals))
	}
	if got := cums[len(cums)-2]; got != uint64(len(vals))-1 {
		t.Errorf("top-edge cum = %d, want %d (3e6 overflows 2^21)", got, len(vals)-1)
	}
}
