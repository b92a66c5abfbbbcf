package lorawan

import (
	"testing"
	"testing/quick"
	"time"
)

func TestFramePayloadBytes(t *testing.T) {
	f := Frame{Messages: make([]Message, 12)}
	want := FrameOverheadBytes + 12*MessageBytes // 21 + 240 = 261… check ≤255?
	if got := f.PayloadBytes(); got != want {
		t.Fatalf("PayloadBytes = %d, want %d", got, want)
	}
	empty := Frame{}
	if got := empty.PayloadBytes(); got != FrameOverheadBytes {
		t.Fatalf("empty frame payload = %d", got)
	}
}

func TestFrameValidate(t *testing.T) {
	ok := Frame{Messages: make([]Message, MaxBundle)}
	if err := ok.Validate(); err != nil {
		t.Fatalf("full bundle rejected: %v", err)
	}
	bad := Frame{Messages: make([]Message, MaxBundle+1)}
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized bundle accepted")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(0)
	for i := uint64(1); i <= 5; i++ {
		if !q.Push(Message{ID: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.PopNInto(3, nil)
	if len(got) != 3 || got[0].ID != 1 || got[2].ID != 3 {
		t.Fatalf("PopNInto(3) = %v", got)
	}
	got = q.PopNInto(10, nil)
	if len(got) != 2 || got[0].ID != 4 || got[1].ID != 5 {
		t.Fatalf("drain = %v", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestQueuePopEmpty(t *testing.T) {
	q := NewQueue(0)
	if got := q.PopNInto(3, nil); got != nil {
		t.Fatalf("PopNInto on empty = %v", got)
	}
	q.Push(Message{ID: 1})
	if got := q.PopNInto(0, nil); got != nil {
		t.Fatalf("PopNInto(0) = %v", got)
	}
}

func TestQueueCapacityAndDrops(t *testing.T) {
	q := NewQueue(2)
	if !q.Push(Message{ID: 1}) || !q.Push(Message{ID: 2}) {
		t.Fatal("pushes within capacity failed")
	}
	if q.Push(Message{ID: 3}) {
		t.Fatal("push over capacity succeeded")
	}
	if q.Dropped() != 1 {
		t.Fatalf("Dropped = %d", q.Dropped())
	}
}

func TestQueuePushFrontPreservesOrder(t *testing.T) {
	q := NewQueue(0)
	q.Push(Message{ID: 10})
	popped := []Message{{ID: 1}, {ID: 2}}
	q.PushFront(popped)
	got := q.PopNInto(3, nil)
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 10 {
		t.Fatalf("order after PushFront = %v", got)
	}
}

func TestQueuePushFrontOverflow(t *testing.T) {
	q := NewQueue(2)
	q.Push(Message{ID: 9})
	if n := q.PushFront([]Message{{ID: 1}, {ID: 2}, {ID: 3}}); n != 2 {
		t.Fatalf("PushFront dropped %d, want 2", n)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if q.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", q.Dropped())
	}
	got := q.PopNInto(2, nil)
	if got[0].ID != 1 {
		t.Fatalf("front after overflow = %v", got)
	}
}

func TestQueuePushFrontEmpty(t *testing.T) {
	q := NewQueue(0)
	q.Push(Message{ID: 1})
	q.PushFront(nil)
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQueueCompaction(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 1000; i++ {
		q.Push(Message{ID: uint64(i)})
		q.PopNInto(1, nil)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	// The backing array must not retain all 1000 messages.
	if cap(q.items) > 128 {
		t.Fatalf("backing array grew to %d despite compaction", cap(q.items))
	}
}

func TestDeviceClassStringsAndValidity(t *testing.T) {
	for c := ClassA; c <= ClassQueueA; c++ {
		if !c.Valid() {
			t.Errorf("%v invalid", c)
		}
		if c.String() == "" {
			t.Errorf("class %d has empty name", int(c))
		}
	}
	if DeviceClass(0).Valid() || DeviceClass(99).Valid() {
		t.Error("invalid class reported valid")
	}
}

func TestCanOverhear(t *testing.T) {
	if ClassA.CanOverhear() || ClassB.CanOverhear() || ClassC.CanOverhear() {
		t.Fatal("legacy classes claim overhearing")
	}
	if !ClassModifiedC.CanOverhear() || !ClassQueueA.CanOverhear() {
		t.Fatal("paper classes cannot overhear")
	}
}

func TestQueueAListenFraction(t *testing.T) {
	tests := []struct {
		name       string
		phi, phiMx float64
		qlen, qmax int
		want       float64
	}{
		{"empty queue", 1, 2, 0, 100, 0},
		{"full queue high phi", 2, 2, 100, 100, 1},
		{"half queue", 2, 2, 50, 100, 0.5},
		{"low phi lengthens window", 0.5, 2, 25, 100, 1},
		{"clamps to 1", 0.1, 2, 100, 100, 1},
		{"no qmax fallback", 1, 2, 5, 0, 1},
		{"no phi fallback", 0, 2, 5, 100, 1},
		{"negative qlen", 1, 2, -5, 100, 0},
	}
	for _, tt := range tests {
		got := QueueAListenFraction(tt.phi, tt.phiMx, tt.qlen, tt.qmax)
		if got != tt.want {
			t.Errorf("%s: γ = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestDutyGovernor(t *testing.T) {
	g := NewDutyGovernor(0.01)
	if !g.CanSend(0) {
		t.Fatal("fresh governor blocks")
	}
	g.Record(0, 100*time.Millisecond)
	// 100 ms at 1 % occupies 10 s total.
	if g.CanSend(9 * time.Second) {
		t.Fatal("governor allowed send inside silent period")
	}
	if !g.CanSend(10 * time.Second) {
		t.Fatal("governor still blocking after silent period")
	}
	if g.NextFree() != 10*time.Second {
		t.Fatalf("NextFree = %v", g.NextFree())
	}
}

func TestDutyGovernorDisabled(t *testing.T) {
	g := NewDutyGovernor(0)
	g.Record(0, time.Second)
	if !g.CanSend(time.Second) {
		t.Fatal("disabled governor enforced a silent period beyond airtime")
	}
}

func TestRetryPolicy(t *testing.T) {
	p := DefaultRetryPolicy()
	if p.Max != 8 {
		t.Fatalf("default Max = %d", p.Max)
	}
	if p.Exhausted(7) {
		t.Fatal("exhausted at 7 of 8")
	}
	if !p.Exhausted(8) {
		t.Fatal("not exhausted at 8")
	}
	unlimited := RetryPolicy{}
	if unlimited.Exhausted(1000) {
		t.Fatal("unlimited policy exhausted")
	}
}

func TestEnergyMeter(t *testing.T) {
	var m EnergyMeter
	m.RecordTx(100 * time.Millisecond)
	m.RecordTx(50 * time.Millisecond)
	m.RecordRx(2 * time.Second)
	if m.TxFrames != 2 {
		t.Fatalf("TxFrames = %d", m.TxFrames)
	}
	if m.RadioOnTime() != 2150*time.Millisecond {
		t.Fatalf("RadioOnTime = %v", m.RadioOnTime())
	}
}

// Property: the queue never exceeds capacity and never loses FIFO order
// under arbitrary push/pop interleavings.
func TestQuickQueueInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewQueue(16)
		var next uint64
		lastPopped := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // push twice as often as pop
				next++
				q.Push(Message{ID: next})
			case 2:
				for _, m := range q.PopNInto(int(op%5)+1, nil) {
					if m.ID <= lastPopped {
						return false // FIFO violated
					}
					lastPopped = m.ID
				}
			}
			if q.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: γ stays in [0, 1] for arbitrary inputs.
func TestQuickListenFractionBounds(t *testing.T) {
	f := func(phi, phiMax float64, qlen, qmax int16) bool {
		g := QueueAListenFraction(phi, phiMax, int(qlen), int(qmax))
		return g >= 0 && g <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue(0)
	for i := 0; i < b.N; i++ {
		q.Push(Message{ID: uint64(i)})
		if i%12 == 11 {
			q.PopNInto(12, nil)
		}
	}
}

func TestPopEligibleFiltersAndPreservesOrder(t *testing.T) {
	q := NewQueue(0)
	for i := 1; i <= 6; i++ {
		via := -1
		if i%2 == 0 {
			via = 7 // received from device 7
		}
		q.Push(Message{ID: uint64(i), Via: via})
	}
	// Pop up to 10 messages not received from device 7.
	got := q.PopNotViaInto(10, 7, nil)
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 3 || got[2].ID != 5 {
		t.Fatalf("PopNotViaInto = %v", got)
	}
	// The messages from device 7 remain in order.
	rest := q.PopNInto(10, nil)
	if len(rest) != 3 || rest[0].ID != 2 || rest[1].ID != 4 || rest[2].ID != 6 {
		t.Fatalf("remainder = %v", rest)
	}
}

func TestPopEligibleRespectsLimit(t *testing.T) {
	q := NewQueue(0)
	for i := 1; i <= 5; i++ {
		q.Push(Message{ID: uint64(i)})
	}
	scratch := make([]Message, 0, MaxBundle)
	got := q.PopNotViaInto(2, 9, scratch)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("PopNotViaInto = %v", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("PopNotViaInto did not fill the scratch slice in place")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestPopEligibleEmptyAndZero(t *testing.T) {
	q := NewQueue(0)
	if got := q.PopNotViaInto(3, 9, nil); got != nil {
		t.Fatalf("PopNotViaInto on empty = %v", got)
	}
	q.Push(Message{ID: 1})
	if got := q.PopNotViaInto(0, 9, nil); got != nil {
		t.Fatalf("PopNotViaInto(0) = %v", got)
	}
}

func TestPopEligibleNoneMatch(t *testing.T) {
	q := NewQueue(0)
	q.Push(Message{ID: 1, Via: 3})
	q.Push(Message{ID: 2, Via: 3})
	if got := q.PopNotViaInto(5, 3, nil); len(got) != 0 {
		t.Fatalf("PopNotViaInto = %v", got)
	}
	if q.Len() != 2 {
		t.Fatalf("queue lost messages: Len = %d", q.Len())
	}
}
