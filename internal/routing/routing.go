// Package routing defines the forwarding schemes the paper evaluates as
// pluggable policies over the core metrics:
//
//   - NoRouting: the modified-LoRaWAN baseline (Sec. VII-A7). It never
//     hands data to a neighbour. Its devices do not wait for a gateway
//     contact either: the engines uplink a bundle at every slot, and retry
//     a failed one at the next duty-cycle opportunity, whether or not a
//     gateway is in range. Whether the paper's baseline does the same or
//     holds its data until a contact is open (ROADMAP item 1(c)).
//   - RCA-ETX: greedy forwarding by the Eq. (1) comparison.
//   - ROBC: backpressure forwarding by φ-corrected queue differentials
//     (Eq. 10) transferring δ messages (Sec. V-B2).
//
// A policy sees one overheard broadcast at a time — the only neighbour
// discovery LoRaWAN's duty-cycle regime permits — and answers whether the
// listener should hand data to the broadcaster, and how much. It first
// answers without the link (Wants), so the engines measure a link only for
// listeners whose decision reads it.
package routing

import (
	"fmt"

	"mlorass/internal/core"
	"mlorass/internal/lorawan"
)

// Scheme enumerates the evaluated forwarding schemes.
type Scheme int

// Schemes under evaluation (Sec. VII-A7).
const (
	SchemeNoRouting Scheme = iota + 1
	SchemeRCAETX
	SchemeROBC
)

// String names the scheme as the paper's figures label it.
func (s Scheme) String() string {
	switch s {
	case SchemeNoRouting:
		return "NoRouting"
	case SchemeRCAETX:
		return "RCA-ETX"
	case SchemeROBC:
		return "ROBC"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Valid reports whether s is a known scheme.
func (s Scheme) Valid() bool { return s >= SchemeNoRouting && s <= SchemeROBC }

// LocalState is the listener's routing state at decision time.
type LocalState struct {
	// RCAETX is the listener's own RCA-ETX(x, S) in seconds.
	RCAETX float64
	// Phi is the listener's clamped Real-time Gateway Quality.
	Phi float64
	// QueueLen is the listener's total backlog (queued + in-flight).
	QueueLen int
}

// Decision is a policy's verdict on one overheard broadcast.
type Decision struct {
	// Forward reports whether to hand data to the broadcaster.
	Forward bool
	// Count is how many messages to hand over; the device layer caps it
	// at the bundle limit and the available queue.
	Count int
}

// Policy decides, for one overheard broadcast, whether the listener forwards
// part of its queue to the broadcaster.
type Policy interface {
	// Scheme identifies the policy.
	Scheme() Scheme
	// OnOverhear receives the listener's state, the overheard frame
	// (carrying the broadcaster's advertised RCA-ETX and queue length),
	// and the listener→broadcaster link metric RCA-ETX(x, y) from
	// Eq. (6). phiBounds carry the ROBC stability clamps.
	OnOverhear(local LocalState, frame lorawan.Frame, linkETX float64, phiMin, phiMax float64) Decision
	// Wants is OnOverhear's link-free necessary condition: for every
	// linkETX a LinkModel can return (zero, positive, +Inf or NaN),
	// OnOverhear(local, frame, linkETX, phiMin, phiMax).Forward implies
	// Wants(local, frame, phiMin, phiMax). A false answer lets the caller
	// skip measuring the link.
	Wants(local LocalState, frame lorawan.Frame, phiMin, phiMax float64) bool
}

// New returns the policy implementing the given scheme.
func New(s Scheme) (Policy, error) {
	switch s {
	case SchemeNoRouting:
		return noRouting{}, nil
	case SchemeRCAETX:
		return rcaETX{}, nil
	case SchemeROBC:
		return robc{}, nil
	default:
		return nil, fmt.Errorf("routing: unknown scheme %d", int(s))
	}
}

type noRouting struct{}

var _ Policy = noRouting{}

func (noRouting) Scheme() Scheme { return SchemeNoRouting }

// OnOverhear never forwards: NoRouting devices send their queue only as
// uplinks.
func (noRouting) OnOverhear(LocalState, lorawan.Frame, float64, float64, float64) Decision {
	return Decision{}
}

// Wants is false: NoRouting never forwards.
func (noRouting) Wants(LocalState, lorawan.Frame, float64, float64) bool { return false }

type rcaETX struct{}

var _ Policy = rcaETX{}

func (rcaETX) Scheme() Scheme { return SchemeRCAETX }

// OnOverhear applies Eq. (1): forward everything transferable when the
// broadcaster's total cost undercuts the listener's own.
func (rcaETX) OnOverhear(local LocalState, frame lorawan.Frame, linkETX float64, _, _ float64) Decision {
	if local.QueueLen == 0 {
		return Decision{}
	}
	if !core.ShouldForwardGreedy(local.RCAETX, frame.AdvertisedRCAETX, linkETX) {
		return Decision{}
	}
	return Decision{Forward: true, Count: local.QueueLen}
}

// Wants is Eq. (1) with the link term at its least, zero: a link cost is
// never negative, and adding one never lowers the broadcaster's total.
func (rcaETX) Wants(local LocalState, frame lorawan.Frame, _, _ float64) bool {
	return local.QueueLen != 0 && local.RCAETX > frame.AdvertisedRCAETX
}

type robc struct{}

var _ Policy = robc{}

func (robc) Scheme() Scheme { return SchemeROBC }

// OnOverhear applies Eq. (10): forward δ messages when the listener's
// φ-corrected backlog exceeds the broadcaster's. The broadcaster's φ is
// recovered from its advertised RCA-ETX with the same clamps the listener
// uses, so both sides of the weight are commensurate.
func (robc) OnOverhear(local LocalState, frame lorawan.Frame, linkETX float64, phiMin, phiMax float64) Decision {
	// A dead link cannot carry data regardless of queue pressure.
	if linkETX <= 0 || linkETX != linkETX || linkETX > 1e18 {
		return Decision{}
	}
	n := robcTransfer(local, frame, phiMin, phiMax)
	if n == 0 {
		return Decision{}
	}
	return Decision{Forward: true, Count: n}
}

// Wants is Eq. (10) and δ without the dead-link veto, the only part of
// ROBC's decision that reads the link.
func (robc) Wants(local LocalState, frame lorawan.Frame, phiMin, phiMax float64) bool {
	return robcTransfer(local, frame, phiMin, phiMax) != 0
}

// robcTransfer returns δ when Eq. (10) forwards, or 0.
func robcTransfer(local LocalState, frame lorawan.Frame, phiMin, phiMax float64) int {
	if local.QueueLen == 0 {
		return 0
	}
	phiY := core.ClampPhi(1/frame.AdvertisedRCAETX, phiMin, phiMax)
	if !core.ShouldForwardROBC(local.QueueLen, frame.AdvertisedQueueLen, local.Phi, phiY) {
		return 0
	}
	return core.ROBCTransfer(local.QueueLen, frame.AdvertisedQueueLen, local.Phi, phiY)
}
