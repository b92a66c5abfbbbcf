package eventsim

import (
	"testing"
	"time"
)

// BenchmarkKernelSchedule measures the kernel's steady-state schedule/pop
// cycle: a standing population of pending events with one event scheduled
// per event executed, the shape of the simulator's slot-tick and
// transmission-resolve traffic. The loop never rebuilds the Simulator, so
// the number reflects the per-event cost a long run actually pays.
func BenchmarkKernelSchedule(b *testing.B) {
	s := New()
	fn := Event(func(time.Duration) {})
	// Standing population: the experiment keeps thousands of device
	// slots armed at any instant.
	const standing = 4096
	for j := 0; j < standing; j++ {
		if _, err := s.At(time.Duration(j)*time.Millisecond, fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.At(s.Now()+time.Duration(standing)*time.Millisecond, fn); err != nil {
			b.Fatal(err)
		}
		if !s.step() {
			b.Fatal("queue drained")
		}
	}
}

// BenchmarkKernelScheduleCancel measures the schedule+cancel pair: the
// duty-cycle retry path arms and disarms timers constantly.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	s := New()
	fn := Event(func(time.Duration) {})
	const standing = 1024
	for j := 0; j < standing; j++ {
		if _, err := s.At(time.Duration(j)*time.Second, fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := s.At(s.Now()+time.Hour, fn)
		if err != nil {
			b.Fatal(err)
		}
		if !s.Cancel(h) {
			b.Fatal("cancel failed")
		}
	}
}
