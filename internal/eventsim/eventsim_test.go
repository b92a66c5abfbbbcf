package eventsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	mustAt(t, s, 30*time.Second, func(time.Duration) { order = append(order, 3) })
	mustAt(t, s, 10*time.Second, func(time.Duration) { order = append(order, 1) })
	mustAt(t, s, 20*time.Second, func(time.Duration) { order = append(order, 2) })
	s.RunUntil(30 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
	if s.Now() != 30*time.Second {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		mustAt(t, s, time.Second, func(time.Duration) { order = append(order, i) })
	}
	s.RunUntil(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := New()
	mustAt(t, s, 5*time.Second, func(time.Duration) {})
	s.RunUntil(5 * time.Second)
	if _, err := s.At(time.Second, func(time.Duration) {}); err == nil {
		t.Fatal("scheduling in the past succeeded")
	}
}

func TestNilEventRejected(t *testing.T) {
	s := New()
	if _, err := s.At(0, nil); err == nil {
		t.Fatal("nil event accepted")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	h, err := s.At(time.Second, func(time.Duration) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(h) {
		t.Fatal("double Cancel returned true")
	}
	s.RunUntil(time.Second)
	if ran {
		t.Fatal("cancelled event executed")
	}
}

// TestNextAt: the accessor reports the earliest live event, skips
// cancelled ones, runs nothing and leaves the clock alone.
func TestNextAt(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("empty simulator reports a next event")
	}
	ran := false
	h, err := s.At(time.Second, func(time.Duration) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	mustAt(t, s, 3*time.Second, func(time.Duration) { ran = true })
	if at, ok := s.NextAt(); !ok || at != time.Second {
		t.Fatalf("NextAt = %v, %v; want 1s, true", at, ok)
	}
	s.Cancel(h)
	if at, ok := s.NextAt(); !ok || at != 3*time.Second {
		t.Fatalf("after cancel NextAt = %v, %v; want 3s, true", at, ok)
	}
	if ran || s.Now() != 0 {
		t.Fatalf("NextAt ran events or moved the clock: ran=%v now=%v", ran, s.Now())
	}
}

func TestCancelInvalidHandle(t *testing.T) {
	s := New()
	if s.Cancel(Handle{}) {
		t.Fatal("Cancel of zero handle returned true")
	}
	if (Handle{}).Valid() {
		t.Fatal("zero handle reports valid")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var ran []time.Duration
	for _, d := range []time.Duration{time.Second, 3 * time.Second, 10 * time.Second} {
		d := d
		mustAt(t, s, d, func(now time.Duration) { ran = append(ran, now) })
	}
	s.RunUntil(5 * time.Second)
	if len(ran) != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", len(ran))
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", s.Now())
	}
	if pending(s) != 1 {
		t.Fatalf("pending = %d, want 1", pending(s))
	}
	// Continue to the end.
	s.RunUntil(20 * time.Second)
	if len(ran) != 3 || s.Now() != 20*time.Second {
		t.Fatalf("second RunUntil: ran=%v now=%v", ran, s.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var order []string
	mustAt(t, s, time.Second, func(now time.Duration) {
		order = append(order, "a")
		if _, err := s.At(now+time.Second, func(time.Duration) { order = append(order, "b") }); err != nil {
			t.Errorf("inner schedule: %v", err)
		}
	})
	s.RunUntil(2 * time.Second)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("now = %v", s.Now())
	}
}

// Property: any multiset of event times executes in non-decreasing order.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		for _, o := range offsets {
			d := time.Duration(o) * time.Millisecond
			if _, err := s.At(d, func(time.Duration) {}); err != nil {
				return false
			}
		}
		last := time.Duration(-1)
		ok := true
		// Drain manually via RunUntil checkpoints to observe ordering.
		s2 := New()
		var seen []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Millisecond
			if _, err := s2.At(d, func(now time.Duration) { seen = append(seen, now) }); err != nil {
				return false
			}
		}
		s2.RunUntil(math.MaxUint16 * time.Millisecond)
		for _, v := range seen {
			if v < last {
				ok = false
			}
			last = v
		}
		return ok && len(seen) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// pending counts the queued events, leaving out cancelled ones not yet
// compacted away.
func pending(s *Simulator) int { return len(s.heap) - s.canceled }

func mustAt(t *testing.T, s *Simulator, at time.Duration, fn Event) {
	t.Helper()
	if _, err := s.At(at, fn); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			_, _ = s.At(time.Duration(j%97)*time.Millisecond, func(time.Duration) {})
		}
		s.RunUntil(time.Second)
	}
}

// probeRecorder captures OnEvent clock stamps.
type probeRecorder struct {
	stamps []time.Duration
}

func (p *probeRecorder) OnEvent(now time.Duration) { p.stamps = append(p.stamps, now) }

// TestProbeObservesEveryExecutedEvent checks the telemetry hook point: the
// probe sees one clock-stamped callback per executed event, in execution
// order, and cancelled events never reach it.
func TestProbeObservesEveryExecutedEvent(t *testing.T) {
	s := New()
	p := &probeRecorder{}
	s.SetProbe(p)
	ran := 0
	count := func(time.Duration) { ran++ }
	mustAt(t, s, 10*time.Millisecond, count)
	mustAt(t, s, 30*time.Millisecond, count)
	h, err := s.At(20*time.Millisecond, count)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(h)
	s.RunUntil(30 * time.Millisecond)
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond}
	if len(p.stamps) != len(want) {
		t.Fatalf("probe saw %d events, want %d", len(p.stamps), len(want))
	}
	for i, at := range want {
		if p.stamps[i] != at {
			t.Fatalf("stamp[%d] = %v, want %v", i, p.stamps[i], at)
		}
	}
	if ran != len(want) {
		t.Fatalf("executed %d events, want %d", ran, len(want))
	}
	// Removing the probe silences it.
	s.SetProbe(nil)
	mustAt(t, s, 40*time.Millisecond, func(time.Duration) {})
	s.RunUntil(40 * time.Millisecond)
	if len(p.stamps) != len(want) {
		t.Fatal("probe saw events after removal")
	}
}

// TestCancelHeavyQueueBounded is the cancelled-event-leak regression test:
// a workload that schedules far-future events and cancels nearly all of them
// (the duty-cycle retry pattern) must keep the physical queue bounded by the
// live pending count — cancelled entries are compacted, not leaked until
// popped.
func TestCancelHeavyQueueBounded(t *testing.T) {
	s := New()
	const live = 100
	ran := 0
	count := func(time.Duration) { ran++ }
	var keep []Handle
	for i := 0; i < live; i++ {
		h, err := s.At(time.Hour+time.Duration(i)*time.Second, count)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, h)
	}
	for round := 0; round < 1000; round++ {
		var hs []Handle
		for i := 0; i < 64; i++ {
			h, err := s.At(2*time.Hour+time.Duration(i)*time.Second, count)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if !s.Cancel(h) {
				t.Fatal("cancel of pending event failed")
			}
		}
		if pending(s) != live {
			t.Fatalf("round %d: pending = %d, want %d", round, pending(s), live)
		}
		// The compaction threshold is 1/2, so the physical queue may
		// carry up to one cancelled entry per live one (plus the batch
		// in flight), but must never grow round over round.
		if max := 2*live + 2*64 + 1; s.QueueLen() > max {
			t.Fatalf("round %d: queue len %d exceeds bound %d — cancelled events leak", round, s.QueueLen(), max)
		}
	}
	for _, h := range keep {
		if !s.Cancel(h) {
			t.Fatal("cancel of long-lived event failed")
		}
	}
	s.RunUntil(3 * time.Hour)
	if ran != 0 {
		t.Fatalf("executed %d cancelled events", ran)
	}
}

// TestCancelAfterSlotReuse locks the handle-staleness guard: once an event
// has executed (or been cancelled) its slab slot may be reused, and the old
// handle must not cancel the new occupant.
func TestCancelAfterSlotReuse(t *testing.T) {
	s := New()
	ran := 0
	h1, err := s.At(time.Second, func(time.Duration) { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	// h1's slot is now free; the next schedule reuses it.
	h2, err := s.At(2*time.Second, func(time.Duration) { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	if s.Cancel(h1) {
		t.Fatal("stale handle cancelled a reused slot")
	}
	s.RunUntil(2 * time.Second)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if s.Cancel(h2) {
		t.Fatal("cancel of executed event succeeded")
	}
}

// TestKernelZeroAllocSteadyState locks the zero-allocation invariant of the
// kernel hot path: once the slab and heap have grown to the workload's
// standing size, schedule/pop cycles and schedule/cancel pairs allocate
// nothing.
func TestKernelZeroAllocSteadyState(t *testing.T) {
	s := New()
	fn := Event(func(time.Duration) {})
	for i := 0; i < 512; i++ {
		if _, err := s.At(time.Duration(i)*time.Millisecond, fn); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the slab/heap/free-list past their steady-state size.
	for i := 0; i < 1024; i++ {
		if _, err := s.At(s.Now()+time.Second, fn); err != nil {
			t.Fatal(err)
		}
		s.step()
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.At(s.Now()+time.Second, fn); err != nil {
			t.Fatal(err)
		}
		if !s.step() {
			t.Fatal("queue drained")
		}
	}); n != 0 {
		t.Fatalf("schedule/pop allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		h, err := s.At(s.Now()+time.Hour, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Cancel(h) {
			t.Fatal("cancel failed")
		}
	}); n != 0 {
		t.Fatalf("schedule/cancel allocates %v per op, want 0", n)
	}
}
