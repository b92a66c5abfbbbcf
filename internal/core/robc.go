package core

import "math"

// ROBCWeight computes ω(x,y)(t) from Eq. (10):
//
//	ω = Qx/φx − Qy/φy
//
// where the queue lengths are corrected by each device's Real-time Gateway
// Quality: Q/φ approximates how long the backlog will take to drain through
// that device's sink contacts. Device x forwards toward y only when ω > 0
// (forwarding to itself has weight ω(x,x) = 0, so "keep" is the ω ≤ 0 case).
func ROBCWeight(qx, qy int, phiX, phiY float64) float64 {
	return float64(qx)/phiX - float64(qy)/phiY
}

// ROBCTransfer computes δ(x,y)(t), the number of messages x hands to y when
// ω > 0 (Sec. V-B2):
//
//	δ = Qx − Qy · φx/φy
//
// the amount that equalises the φ-corrected queues, rather than the full
// link capacity — the paper sends only δ to suppress recursive loops under
// sparse duty-cycled links. The result is clamped to [0, Qx].
func ROBCTransfer(qx, qy int, phiX, phiY float64) int {
	if qx <= 0 {
		return 0
	}
	d := float64(qx) - float64(qy)*(phiX/phiY)
	if math.IsNaN(d) || d <= 0 {
		return 0
	}
	// Clamp while d is a float: an infinite d would not convert to an int.
	if d >= float64(qx) {
		return qx
	}
	return int(math.Ceil(d))
}

// ShouldForwardROBC reports whether ROBC forwards from x to y: the weight
// comparison ω(x,y) > ω(x,x) = 0, guarded against non-finite φ.
func ShouldForwardROBC(qx, qy int, phiX, phiY float64) bool {
	if phiX <= 0 || phiY <= 0 || math.IsNaN(phiX) || math.IsNaN(phiY) {
		return false
	}
	return ROBCWeight(qx, qy, phiX, phiY) > 0
}
