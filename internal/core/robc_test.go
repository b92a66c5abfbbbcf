package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestROBCWeightEq10(t *testing.T) {
	tests := []struct {
		name       string
		qx, qy     int
		phiX, phiY float64
		want       float64
	}{
		{"equal state", 10, 10, 0.5, 0.5, 0},
		{"x backed up", 20, 10, 0.5, 0.5, 20},
		{"y better quality compensates", 10, 10, 0.5, 1.0, 10},
		{"x better quality", 10, 10, 1.0, 0.5, -10},
		{"empty x", 0, 10, 0.5, 0.5, -20},
	}
	for _, tt := range tests {
		if got := ROBCWeight(tt.qx, tt.qy, tt.phiX, tt.phiY); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: ω = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestROBCTransferDelta(t *testing.T) {
	tests := []struct {
		name       string
		qx, qy     int
		phiX, phiY float64
		want       int
	}{
		{"equalise equal phi", 20, 10, 0.5, 0.5, 10},
		{"empty queue", 0, 10, 0.5, 0.5, 0},
		{"negative delta keeps", 10, 20, 0.5, 0.5, 0},
		{"phi ratio scales", 20, 10, 1.0, 0.5, 0},      // δ = 20 − 10·2 = 0
		{"phi ratio favours y", 20, 10, 0.25, 0.5, 15}, // δ = 20 − 10·0.5 = 15
		{"clamped to queue", 5, 0, 10, 0.001, 5},
		{"y empty sends all", 12, 0, 0.5, 0.5, 12},
		{"infinite delta clamped", 4, -3, math.Inf(1), 0.5, 4}, // δ = 4 + 3·∞
	}
	for _, tt := range tests {
		if got := ROBCTransfer(tt.qx, tt.qy, tt.phiX, tt.phiY); got != tt.want {
			t.Errorf("%s: δ = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestROBCTransferCeils(t *testing.T) {
	// δ = 10 − 3·(0.5/0.3) = 5, exactly integral; perturb φ to force a
	// fractional δ and confirm ceiling.
	got := ROBCTransfer(10, 3, 0.5, 0.4) // 10 − 3·1.25 = 6.25 → 7
	if got != 7 {
		t.Fatalf("δ = %d, want 7 (ceil of 6.25)", got)
	}
}

func TestShouldForwardROBC(t *testing.T) {
	if !ShouldForwardROBC(20, 10, 0.5, 0.5) {
		t.Fatal("positive weight refused")
	}
	if ShouldForwardROBC(10, 10, 0.5, 0.5) {
		t.Fatal("zero weight forwarded (must compare against ω(x,x)=0)")
	}
	if ShouldForwardROBC(10, 0, 0, 0.5) || ShouldForwardROBC(10, 0, 0.5, 0) {
		t.Fatal("non-positive φ forwarded")
	}
	if ShouldForwardROBC(10, 0, math.NaN(), 0.5) {
		t.Fatal("NaN φ forwarded")
	}
}

// Property: δ never exceeds the sender's queue and never moves data toward a
// node whose φ-corrected backlog is already larger (the Lyapunov-drift
// safety property backpressure stability rests on).
func TestQuickROBCTransferSafety(t *testing.T) {
	f := func(qxRaw, qyRaw uint16, pxRaw, pyRaw uint8) bool {
		qx, qy := int(qxRaw%1000), int(qyRaw%1000)
		phiX := float64(pxRaw%100+1) / 100
		phiY := float64(pyRaw%100+1) / 100
		d := ROBCTransfer(qx, qy, phiX, phiY)
		if d < 0 || d > qx {
			return false
		}
		if d > 0 && ROBCWeight(qx, qy, phiX, phiY) < 0 {
			// A strictly negative weight must never transfer. (A
			// zero weight can yield δ>0 only through the ceil,
			// which moves at most one message — accept δ≤1.)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after transferring δ, the sender's φ-corrected queue is no
// smaller than the receiver's would-have-been — i.e. δ never overshoots the
// equalisation point by more than the integer ceiling.
func TestQuickROBCNoOvershoot(t *testing.T) {
	f := func(qxRaw, qyRaw uint16, pxRaw, pyRaw uint8) bool {
		qx, qy := int(qxRaw%1000), int(qyRaw%1000)
		phiX := float64(pxRaw%100+1) / 100
		phiY := float64(pyRaw%100+1) / 100
		d := ROBCTransfer(qx, qy, phiX, phiY)
		if d == 0 {
			return true
		}
		// Ideal δ* satisfies qx − δ* = (qy + 0)·φx/φy; integer δ may
		// overshoot by at most 1.
		ideal := float64(qx) - float64(qy)*phiX/phiY
		return float64(d) <= ideal+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkROBCDecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ShouldForwardROBC(i%100, (i+7)%100, 0.3, 0.6) {
			ROBCTransfer(i%100, (i+7)%100, 0.3, 0.6)
		}
	}
}
