package lorawan

import "fmt"

// Queue is the device's FIFO data buffer (Sec. VII-A4). Messages wait here
// until acknowledged by a gateway or handed over to a neighbour. The zero
// value is not usable; construct with NewQueue.
type Queue struct {
	items   []Message
	head    int // index of the front element within items
	max     int
	dropped uint64
}

// NewQueue builds a queue holding at most max messages. max <= 0 means
// unbounded.
func NewQueue(max int) *Queue {
	return &Queue{max: max}
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Max returns the configured capacity (0 = unbounded).
func (q *Queue) Max() int { return q.max }

// Dropped returns how many messages were discarded because the queue was
// full — queue losses show up as throughput loss, as in the paper.
func (q *Queue) Dropped() uint64 { return q.dropped }

// Push appends a message to the tail. It reports false (and counts a drop)
// when the queue is full.
func (q *Queue) Push(m Message) bool {
	if q.max > 0 && q.Len() >= q.max {
		q.dropped++
		return false
	}
	q.items = append(q.items, m)
	return true
}

// PushFront returns messages to the head of the queue, preserving their
// relative order — used to requeue an unacknowledged bundle so FIFO order
// survives retransmission. Overflow drops from the back of the restored
// block (newest first), counting drops, and it returns how many it dropped.
// The queue's backing array is reused (growing only when capacity runs out),
// so steady-state requeues allocate nothing.
func (q *Queue) PushFront(ms []Message) (dropped int) {
	if len(ms) == 0 {
		return 0
	}
	keep := ms
	if q.max > 0 {
		room := q.max - q.Len()
		if room < 0 {
			room = 0
		}
		if len(keep) > room {
			dropped = len(keep) - room
			q.dropped += uint64(dropped)
			keep = keep[:room]
		}
	}
	k := len(keep)
	if k == 0 {
		return dropped
	}
	if q.head >= k {
		// Consumed front room absorbs the block in place.
		copy(q.items[q.head-k:q.head], keep)
		q.head -= k
		return dropped
	}
	n := q.Len()
	if cap(q.items) < n+k {
		grown := make([]Message, n+k, max(2*cap(q.items), n+k))
		copy(grown[k:], q.items[q.head:])
		copy(grown[:k], keep)
		q.items = grown
		q.head = 0
		return dropped
	}
	q.items = q.items[:n+k]
	copy(q.items[k:], q.items[q.head:q.head+n]) // overlapping shift right
	copy(q.items[:k], keep)
	q.head = 0
	return dropped
}

// PopNInto removes up to n messages from the front, appending them to dst
// (normally a caller-owned scratch slice sliced to length zero) and
// returning it. It allocates only if dst lacks capacity.
func (q *Queue) PopNInto(n int, dst []Message) []Message {
	if n <= 0 || q.Len() == 0 {
		return dst
	}
	if n > q.Len() {
		n = q.Len()
	}
	dst = append(dst, q.items[q.head:q.head+n]...)
	q.head += n
	q.compact()
	return dst
}

// PopNotViaInto removes up to n eligible messages from the front, those not
// received from device via (the no-send-back rule), appending them to dst and
// returning it. The messages left behind keep their relative order. The
// transmit hot path calls it with a caller-owned scratch dst, so it allocates
// only if dst lacks capacity.
func (q *Queue) PopNotViaInto(n, via int, dst []Message) []Message {
	if n <= 0 || q.Len() == 0 {
		return dst
	}
	taken := 0
	kept := q.items[q.head:q.head] // reuse storage, preserving order
	for i := q.head; i < len(q.items); i++ {
		m := q.items[i]
		if taken < n && m.Via != via {
			dst = append(dst, m)
			taken++
			continue
		}
		kept = append(kept, m)
	}
	newLen := q.head + len(kept)
	for i := newLen; i < len(q.items); i++ {
		q.items[i] = Message{}
	}
	q.items = q.items[:newLen]
	q.compact()
	return dst
}

// compact reclaims the consumed prefix once it dominates the backing array.
func (q *Queue) compact() {
	if q.head == 0 {
		return
	}
	if q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		// Zero the tail so popped messages can be collected.
		for i := n; i < len(q.items); i++ {
			q.items[i] = Message{}
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// String summarises the queue for diagnostics.
func (q *Queue) String() string {
	return fmt.Sprintf("queue{len=%d max=%d dropped=%d}", q.Len(), q.max, q.dropped)
}
