package experiment

import (
	"time"

	"mlorass/internal/lorawan"
	"mlorass/internal/mac"
	"mlorass/internal/netserver"
	"mlorass/internal/radio"
)

// This file is the device side of the MAC subsystem (Config.MAC): the first
// bidirectional traffic in the reproduction. Uplinks decoded at a gateway
// feed the network server's ADR controller; confirmed uplinks and pending
// LinkADRReq commands are answered by gateway downlinks placed into the
// Class-A RX1/RX2 windows under a per-gateway duty budget, transmitted on the
// same shared medium as the uplinks (so downlink airtime interferes with
// uplink traffic, as on a real single-channel deployment). Every entry point
// below is reached only when cfg.MAC.Enabled(): a zero-valued MAC config
// schedules no events, draws no random numbers, and leaves the run
// byte-identical to the paper's uplink-only model.

// MAC-plane operation kinds, ordered to match a tile's resolve order.
const (
	macOpUplink uint8 = iota
	macOpReset
)

// macOp is one operation on the network server's MAC plane: an uplink the
// ADR controller observes and may answer with a downlink, or an ADR history
// reset. The serial engine applies it at once; a tile's go to the
// coordinator, which replays them in intrinsic (at, dev, kind) order.
type macOp struct {
	at     time.Duration
	dev    int
	kind   uint8
	gw     int
	snr    radio.DB
	dr     lorawan.DataRate
	powIdx int
	timing netserver.RxTiming
}

// applyMAC applies op to the network server's one ADR controller and
// downlink scheduler, returning the downlink planned for an uplink, if any.
// ok is false both when no downlink is due (unconfirmed, no pending command)
// and when the gateway's duty budget had no open window. Both engines call it
// on the goroutine that owns the world's recorder, which counts the issued
// ADR commands and the dropped downlinks as they happen. A dropped ack means
// the device times out and retransmits an already-delivered bundle — a
// duplicate the server deduplicates, the cost of a congested downlink budget.
func (w *world) applyMAC(op *macOp) (plan netserver.DownlinkPlan, ok bool) {
	m := w.server.MAC()
	if op.kind == macOpReset {
		if m.ADR != nil {
			m.ADR.Reset(op.dev)
		}
		return plan, false
	}
	drops := m.Sched.Stats().Dropped
	plan, ok = m.OnUplink(op.dev, op.gw, op.snr, op.dr, op.powIdx, w.confirmed, op.at, op.timing)
	if ok && plan.HasCmd {
		w.rec.AddADRCommand()
	}
	if m.Sched.Stats().Dropped != drops {
		w.rec.AddDownlinkDrop()
	}
	return plan, ok
}

// macUplink runs the MAC reaction to one of d's uplinks decoded by gateway
// gw at instant now (the uplink's end): the network server observes the SNR,
// may issue an ADR command, and schedules the ack/command downlink. For
// confirmed traffic the device then waits for the ack — the bundle stays
// parked in pendFrame until the ack arrives or the window closes; for
// unconfirmed traffic the uplink completes immediately, exactly like the
// paper's instant-ack model.
func (k *kernel) macUplink(d *device, gw int, rssi radio.DBm, now time.Duration) {
	timing := k.rxTiming(d)
	k.eng.mac(macOp{
		at: now, dev: d.id, kind: macOpUplink, gw: gw, snr: rssi.Sub(k.noiseFloor),
		dr: d.dr, powIdx: d.txPowIdx, timing: timing,
	})
	if !k.confirmed {
		k.uplinkAcked(d)
		return
	}
	d.awaitingAck = true
	// The ack window closes once RX2's frame could no longer be on the air;
	// one extra millisecond keeps the timeout strictly after any RX2
	// resolution at equal instants. RX2Delay ≥ a tile's lookahead, so the
	// deadline lies beyond the window and stays a plain kernel event.
	deadline := now + k.cfg.MAC.RX2Delay + timing.RX2Air + time.Millisecond
	h, err := k.es.At(deadline, d.ackTimeoutFn)
	if err != nil {
		// Unreachable for a positive deadline; fail open to the
		// unconfirmed behaviour rather than wedging the device.
		d.awaitingAck = false
		k.uplinkAcked(d)
		return
	}
	d.ackTimeoutH = h
}

// uplinkAcked finalises a successful uplink: the contact observation, retry
// reset, forwarding-state clears, and backlog continuation shared by the
// paper's instant ack, the unconfirmed MAC path, and a received ack
// downlink.
func (k *kernel) uplinkAcked(d *device) {
	d.acked = true
	d.attempts = 0
	d.fwdTarget = -1
	// Next sink contact reached: the no-send-back bans lift.
	d.noSendBack = d.noSendBack[:0]
	k.scheduleNextAttempt(d)
}

// sendDownlink puts a planned gateway downlink to d on the shared medium.
// Gateway transmitter ids are negative (-1-gw) so the medium's same-sender
// overlap skip never aliases a device id. Replacing a still-pending downlink
// is deliberate (freshest wins — see resolveDownlink); the replaced frame
// stays on the medium as interference but is never decoded. dlSeq keys the
// downlink's reception draw where draws are keyed.
func (k *kernel) sendDownlink(d *device, p *netserver.DownlinkPlan) {
	tx := k.medium.Begin(-1-p.Gateway, k.gws[p.Gateway], k.gwTxPowDBm,
		p.Start, p.Start+p.AirTime, nil)
	d.dlTx = tx
	d.dlAck = p.Ack
	d.dlCmd = p.Cmd
	d.dlHasCmd = p.HasCmd
	d.dlSeq++
	k.rec.AddDownlink()
	k.eng.began(d, tx, rkDownlink)
}

// resolveDownlink completes a gateway downlink at its end-of-air instant:
// the device decodes it if it is alive, in gateway range, not transmitting,
// and the shared-medium reception (collisions with uplink traffic included)
// succeeds. A lost downlink is simply not received — the ack timeout or a
// later ADR command retry recovers it.
//
// A resolution whose instant does not match the pending transmission's end
// is stale: at generous uplink duty cycles an unconfirmed device can uplink
// again before its previous downlink lands, and sendDownlink then replaces
// the pending downlink (the device radio could never decode two anyway).
// The replaced downlink's event must not resolve the replacement early —
// a reception is only valid at a transmission's own end.
func (k *kernel) resolveDownlink(d *device, end time.Duration) {
	tx := d.dlTx
	if tx == nil || tx.End != end {
		return
	}
	d.dlTx = nil
	pos, ok := d.pos(end)
	if !ok || !k.eng.receptive(d, end) || tx.Pos.Dist(pos) > k.cfg.GatewayRangeM ||
		!k.eng.receive(tx, pos, frameKey(tx.From, d.dlSeq), d.id).OK() {
		return
	}
	k.rec.AddDownlinkDelivery()
	if d.dlHasCmd {
		if ans := d.dlCmd.Apply(); ans.Accepted() {
			if k.cfg.MAC.ADR && d.dlCmd.DataRate != d.dr {
				// SNR samples measured at the old data rate must not
				// drive the next decision.
				k.eng.mac(macOp{at: end, dev: d.id, kind: macOpReset})
			}
			d.dr = d.dlCmd.DataRate
			d.txPowIdx = d.dlCmd.TxPowerIndex
			// The TXPower ladder is anchored at the configured baseline
			// power: index 0 reproduces the fixed-power paper setting.
			d.txPowDBm = lorawan.TxPowerDBm(radio.DBm(k.cfg.TxPowerDBm), d.txPowIdx)
			k.rec.AddADRApplied()
		}
	}
	if d.dlAck {
		k.ackReceived(d)
	}
}

// ackReceived closes a confirmed uplink successfully.
func (k *kernel) ackReceived(d *device) {
	if !d.awaitingAck {
		return
	}
	d.awaitingAck = false
	k.es.Cancel(d.ackTimeoutH)
	k.uplinkAcked(d)
}

// ackTimeout fires when a confirmed uplink's ack window closes unanswered:
// the bundle returns to the queue head and the device retransmits after the
// LoRaWAN ack backoff (on top of its duty-cycle silence), up to the retry
// budget. An exhausted budget leaves the messages queued for the next slot,
// as the unconfirmed retry policy does.
func (k *kernel) ackTimeout(d *device, now time.Duration) {
	if !d.awaitingAck {
		return
	}
	d.awaitingAck = false
	k.rec.AddAckTimeout()
	k.rec.AddQueueDrops(d.queue.PushFront(d.pendFrame.Messages))
	if d.failed {
		return
	}
	d.attempts++
	if d.attempts >= k.cfg.MAC.AckRetryMax {
		return
	}
	k.rec.AddRetransmission()
	at := d.duty.NextFree()
	if b := now + mac.AckBackoff(d.attempts, d.rnd); b > at {
		at = b
	}
	if !d.retryScheduled {
		d.retryScheduled = k.eng.schedule(at, d.retryFn)
	}
}
