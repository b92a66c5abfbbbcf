// Package eventsim implements the discrete-event simulation kernel that
// replaces OMNeT++ in this reproduction.
//
// The kernel maintains virtual time as a time.Duration offset from the start
// of the simulation, an event priority queue ordered by (time, sequence), and
// deterministic FIFO tie-breaking for events scheduled at the same instant.
// All higher layers (radio medium, LoRaWAN MAC, routing schemes, experiment
// harness) run on top of a single Simulator and therefore share one totally
// ordered virtual timeline, which keeps full experiment runs bit-for-bit
// reproducible for a given seed.
//
// The queue is an index-based 4-ary heap over a slab of item values with a
// free-list: Schedule, Cancel, and pop move int32 slot indices instead of
// pointers and allocate nothing in steady state (the slab and heap arrays
// grow amortised, then are reused for the rest of the run). Handles carry
// (slot, sequence), so cancellation is an O(1) slab lookup with the sequence
// number guarding against slot reuse — no side map. Cancelled events are
// marked in place and compacted out of the heap once they exceed half of it,
// so Cancel-heavy workloads keep the queue bounded by the pending count.
package eventsim

import (
	"errors"
	"fmt"
	"time"
)

// errNilEvent is predeclared so the hot scheduling path allocates nothing
// even when rejecting a bad call.
var errNilEvent = errors.New("eventsim: nil event")

// Event is a callback scheduled to execute at a virtual time instant.
type Event func(now time.Duration)

// Handle identifies a scheduled event so it can be cancelled. The zero Handle
// is invalid. Handles stay cheap to copy: a slab slot plus the scheduling
// sequence number that guards against the slot having been reused.
type Handle struct {
	slot int32
	seq  uint64
}

// Valid reports whether h refers to a scheduled (possibly executed) event.
func (h Handle) Valid() bool { return h.seq != 0 }

// item is one slab entry. Entries are recycled through the free-list once
// their event has executed, been cancelled, or been compacted away.
type item struct {
	at       time.Duration
	seq      uint64
	fn       Event
	canceled bool
}

// Probe observes kernel activity: OnEvent is invoked after every executed
// event with the event's clock-stamped virtual time. Probes feed the
// telemetry layer (kernel event rates, trace timestamps) without the kernel
// importing it; a nil probe costs the run loop a single branch per event.
type Probe interface {
	OnEvent(now time.Duration)
}

// compactMinHeap is the heap size below which cancellation never triggers
// compaction: rebuilding a tiny heap saves nothing.
const compactMinHeap = 64

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations that need parallelism should run multiple
// independent Simulators.
type Simulator struct {
	now      time.Duration
	heap     []heapEnt // 4-ary min-heap ordered by (at, seq)
	items    []item    // slab backing every scheduled event
	free     []int32   // recycled slab slots
	canceled int       // cancelled entries still occupying heap positions
	nextSeq  uint64
	probe    Probe
}

// heapEnt is one heap position. The ordering key (at, seq) is carried
// inline so sift comparisons stay within the contiguous heap array instead
// of dereferencing the slab.
type heapEnt struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// before orders heap entries by (time, sequence).
func (e heapEnt) before(o heapEnt) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// New returns an empty simulator positioned at virtual time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// QueueLen returns the number of heap entries physically present, including
// cancelled events awaiting compaction — a diagnostic for queue-bound tests.
func (s *Simulator) QueueLen() int { return len(s.heap) }

// SetProbe installs (or, with nil, removes) the kernel activity probe.
func (s *Simulator) SetProbe(p Probe) { s.probe = p }

// siftUp restores the heap property from position i towards the root.
// FIFO among same-instant events: sequence numbers are unique, so (at, seq)
// is a total order and the pop sequence is independent of the heap's
// internal arrangement.
//
//mlorass:hotpath
func (s *Simulator) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.before(s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = e
}

// siftDown restores the heap property from position i towards the leaves.
//
//mlorass:hotpath
func (s *Simulator) siftDown(i int) {
	n := len(s.heap)
	e := s.heap[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if s.heap[c].before(s.heap[min]) {
				min = c
			}
		}
		if !s.heap[min].before(e) {
			break
		}
		s.heap[i] = s.heap[min]
		i = min
	}
	s.heap[i] = e
}

// alloc takes a slab slot from the free-list, growing the slab only when it
// is exhausted.
//
//mlorass:hotpath
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	s.items = append(s.items, item{})
	return int32(len(s.items) - 1)
}

// release returns a slab slot to the free-list, dropping the callback
// reference so the closure can be collected.
//
//mlorass:hotpath
func (s *Simulator) release(slot int32) {
	it := &s.items[slot]
	it.fn = nil
	it.canceled = false
	s.free = append(s.free, slot)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// returns an error: the kernel never rewinds the clock.
//
//mlorass:hotpath
func (s *Simulator) At(at time.Duration, fn Event) (Handle, error) {
	if fn == nil {
		return Handle{}, errNilEvent
	}
	if at < s.now {
		//lint:ignore hotpathlint cold rejection path: a valid run never schedules into the past
		return Handle{}, fmt.Errorf("eventsim: schedule at %v before now %v", at, s.now)
	}
	s.nextSeq++
	slot := s.alloc()
	it := &s.items[slot]
	it.at = at
	it.seq = s.nextSeq
	it.fn = fn
	it.canceled = false
	s.heap = append(s.heap, heapEnt{at: at, seq: s.nextSeq, slot: slot})
	s.siftUp(len(s.heap) - 1)
	return Handle{slot: slot, seq: it.seq}, nil
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false when already executed, cancelled, or invalid). The entry is
// marked in place (O(1)); the heap is compacted once cancelled entries
// outnumber live ones, so cancellation never leaks queue space.
//
//mlorass:hotpath
func (s *Simulator) Cancel(h Handle) bool {
	if h.seq == 0 || h.slot < 0 || int(h.slot) >= len(s.items) {
		return false
	}
	it := &s.items[h.slot]
	if it.seq != h.seq || it.canceled || it.fn == nil {
		return false
	}
	it.canceled = true
	it.fn = nil
	s.canceled++
	if s.canceled*2 > len(s.heap) && len(s.heap) >= compactMinHeap {
		s.compact()
	}
	return true
}

// compact removes every cancelled entry from the heap in one pass and
// re-establishes the heap property bottom-up. The (time, sequence) order is
// total, so the pop sequence after compaction is identical to the lazy
// skip-on-pop behaviour.
//
//mlorass:hotpath
func (s *Simulator) compact() {
	kept := s.heap[:0]
	for _, e := range s.heap {
		if s.items[e.slot].canceled {
			s.release(e.slot)
			continue
		}
		kept = append(kept, e)
	}
	s.heap = kept
	s.canceled = 0
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i)
	}
}

// popMin removes and returns the heap's minimum entry. Callers check
// emptiness first.
//
//mlorass:hotpath
func (s *Simulator) popMin() heapEnt {
	e := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return e
}

// step executes the next pending event. It reports false when the queue is
// exhausted.
//
//mlorass:hotpath
func (s *Simulator) step() bool {
	for len(s.heap) > 0 {
		e := s.popMin()
		it := &s.items[e.slot]
		if it.canceled {
			s.canceled--
			s.release(e.slot)
			continue
		}
		at, fn := it.at, it.fn
		// Free the slot before running the callback: events commonly
		// reschedule, and reusing the hot slot keeps the slab compact.
		s.release(e.slot)
		s.now = at
		fn(at)
		if s.probe != nil {
			s.probe.OnEvent(at)
		}
		return true
	}
	return false
}

// RunUntil executes events with scheduled time <= horizon, then advances the
// clock to horizon. Events scheduled beyond the horizon stay queued.
func (s *Simulator) RunUntil(horizon time.Duration) {
	for {
		next, ok := s.peek()
		if !ok || next > horizon {
			break
		}
		s.step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// NextAt returns the scheduled time of the next live event, and false when
// none is queued. It runs nothing; it may discard cancelled entries from the
// top of the heap, which leaves the pop order unchanged.
func (s *Simulator) NextAt() (time.Duration, bool) { return s.peek() }

// peek returns the scheduled time of the next live event, discarding
// cancelled entries from the top of the heap along the way.
//
//mlorass:hotpath
func (s *Simulator) peek() (time.Duration, bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		if !s.items[e.slot].canceled {
			return e.at, true
		}
		s.popMin()
		s.canceled--
		s.release(e.slot)
	}
	return 0, false
}
