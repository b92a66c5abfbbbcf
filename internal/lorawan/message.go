// Package lorawan provides the MAC-layer substrate of the reproduction:
// application messages, the FIFO data queue with ≤12-message bundling, data
// frames carrying the RCA-ETX/queue-length advertisement, the 1 % duty-cycle
// governor, the retransmission policy, the device classes (including the
// paper's Modified Class-C and Queue-based Class-A), and energy accounting.
//
// The package deliberately contains no scheduling logic: forwarding decisions
// belong to internal/routing, and the device state machine that ties the
// pieces together lives in internal/experiment.
package lorawan

import (
	"fmt"
	"time"
)

// MessageBytes is the application payload size the paper's devices generate
// (Sec. VII-A4: "a 20-byte message every 3 minutes").
const MessageBytes = 20

// MaxBundle is the maximum number of messages packed into one data frame
// (Sec. VII-A5: "devices select up to 12 messages from the queue").
const MaxBundle = 12

// FrameOverheadBytes approximates the LoRaWAN MACPayload overhead: the MHDR
// (1), FHDR (7+), MIC (4), plus the appended RCA-ETX value and queue length
// (Sec. VII-A5: devices "append their RCA-ETX value and data queue size").
const FrameOverheadBytes = 13 + 8

// Message is one application-layer telemetry message.
type Message struct {
	// ID is unique across the simulation and names the message's origin:
	// its high word is the originating device's index plus one, and its
	// low word counts that device's messages consecutively from 1. The
	// network server's ledger indexes its table by the two words, so it
	// relies on each device's count being dense.
	ID uint64
	// Created is the generation time (virtual).
	Created time.Duration
	// Hops counts device-to-device handovers so far; delivery through
	// the origin's own uplink therefore records Hops+1 = 1 total hops,
	// matching Fig. 12's "all LoRaWAN messages have a hop count of 1".
	Hops int
	// Via is the device index this copy was last received from, or -1
	// when held by its originator. It implements the paper's no-send-back
	// rule (Sec. V-B2): a device never returns data to the device it
	// received it from before its own next sink opportunity.
	Via int
}

// Frame is one PHY packet: a bundle of messages plus the sender's advertised
// routing state, which neighbours overhear.
type Frame struct {
	// From is the transmitting device index.
	From int
	// Seq is the sender's frame sequence number.
	Seq uint32
	// Messages is the bundled payload, at most MaxBundle entries.
	Messages []Message
	// AdvertisedRCAETX is the sender's current RCA-ETX to the sinks, in
	// seconds (time units); neighbours feed it into Eq. (1)/(10).
	AdvertisedRCAETX float64
	// AdvertisedQueueLen is the sender's queue length for ROBC (Eq. 10).
	AdvertisedQueueLen int
}

// PayloadBytes returns the frame's PHY payload size in bytes.
func (f Frame) PayloadBytes() int {
	return FrameOverheadBytes + MessageBytes*len(f.Messages)
}

// Validate reports structural errors (over-stuffed bundle).
func (f Frame) Validate() error {
	if len(f.Messages) > MaxBundle {
		return fmt.Errorf("lorawan: frame bundles %d messages, max %d", len(f.Messages), MaxBundle)
	}
	return nil
}
