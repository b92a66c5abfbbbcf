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
// reset. Tiles queue theirs for the coordinator, which replays them in
// intrinsic (at, dev, kind) order.
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
// and when the gateway's duty budget had no open window. The coordinator
// calls it on the goroutine that owns the world's recorder, which counts the
// issued ADR commands and the dropped downlinks as they happen. A dropped ack means
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
func (s *shard) macUplink(d *device, gw int, rssi radio.DBm, now time.Duration) {
	timing := s.rxTiming(d)
	s.outMac = append(s.outMac, macOp{
		at: now, dev: d.id, kind: macOpUplink, gw: gw, snr: rssi.Sub(s.noiseFloor),
		dr: d.dr, powIdx: d.txPowIdx, timing: timing,
	})
	if !s.confirmed {
		s.uplinkAcked(d)
		return
	}
	d.awaitingAck = true
	// The ack window closes once RX2's frame could no longer be on the air;
	// one extra millisecond keeps the timeout strictly after any RX2
	// resolution at equal instants. RX2Delay ≥ a tile's lookahead, so the
	// deadline lies beyond the window and stays a plain kernel event.
	deadline := now + s.cfg.MAC.RX2Delay + timing.RX2Air + time.Millisecond
	h, err := s.es.At(deadline, d.ackTimeoutFn)
	if err != nil {
		// Unreachable for a positive deadline; fail open to the
		// unconfirmed behaviour rather than wedging the device.
		d.awaitingAck = false
		s.uplinkAcked(d)
		return
	}
	d.ackTimeoutH = h
}

// uplinkAcked finalises a successful uplink: the contact observation, retry
// reset, forwarding-state clears, and backlog continuation shared by the
// paper's instant ack, the unconfirmed MAC path, and a received ack
// downlink.
func (s *shard) uplinkAcked(d *device) {
	d.acked = true
	d.attempts = 0
	d.fwdTarget = -1
	// Next sink contact reached: the no-send-back bans lift.
	d.noSendBack = d.noSendBack[:0]
	s.scheduleNextAttempt(d)
}

// sendDownlink puts a planned gateway downlink to d on the shared medium.
// Gateway transmitter ids are negative (-1-gw) so the medium's same-sender
// overlap skip never aliases a device id. Replacing a still-pending downlink
// is deliberate (freshest wins — see resolveDownlink); the replaced frame
// stays on the medium as interference but is never decoded. dlSeq keys the
// downlink's reception draw where draws are keyed.
func (s *shard) sendDownlink(d *device, p *netserver.DownlinkPlan) {
	tx := s.medium.Begin(-1-p.Gateway, s.gws[p.Gateway], s.gwTxPowDBm,
		p.Start, p.Start+p.AirTime, nil)
	d.dlTx = tx
	d.dlAck = p.Ack
	d.dlCmd = p.Cmd
	d.dlHasCmd = p.HasCmd
	d.dlSeq++
	s.rec.AddDownlink()
	s.began(d, tx, rkDownlink)
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
func (s *shard) resolveDownlink(d *device, end time.Duration) {
	tx := d.dlTx
	if tx == nil || tx.End != end {
		return
	}
	d.dlTx = nil
	pos, ok := d.pos(end)
	if !ok || !s.receptive(d, end) || tx.Pos.Dist(pos) > s.cfg.GatewayRangeM ||
		!s.receive(tx, pos, frameKey(tx.From, d.dlSeq), d.id).OK() {
		return
	}
	s.rec.AddDownlinkDelivery()
	if d.dlHasCmd {
		if ans := d.dlCmd.Apply(); ans.Accepted() {
			if s.cfg.MAC.ADR && d.dlCmd.DataRate != d.dr {
				// SNR samples measured at the old data rate must not
				// drive the next decision.
				s.outMac = append(s.outMac, macOp{at: end, dev: d.id, kind: macOpReset})
			}
			d.dr = d.dlCmd.DataRate
			d.txPowIdx = d.dlCmd.TxPowerIndex
			// The TXPower ladder is anchored at the configured baseline
			// power: index 0 reproduces the fixed-power paper setting.
			d.txPowDBm = lorawan.TxPowerDBm(radio.DBm(s.cfg.TxPowerDBm), d.txPowIdx)
			s.rec.AddADRApplied()
		}
	}
	if d.dlAck {
		s.ackReceived(d)
	}
}

// ackReceived closes a confirmed uplink successfully.
func (s *shard) ackReceived(d *device) {
	if !d.awaitingAck {
		return
	}
	d.awaitingAck = false
	s.es.Cancel(d.ackTimeoutH)
	s.uplinkAcked(d)
}

// ackTimeout fires when a confirmed uplink's ack window closes unanswered:
// the bundle returns to the queue head and the device retransmits after the
// LoRaWAN ack backoff (on top of its duty-cycle silence), up to the retry
// budget. An exhausted budget leaves the messages queued for the next slot,
// as the unconfirmed retry policy does.
func (s *shard) ackTimeout(d *device, now time.Duration) {
	if !d.awaitingAck {
		return
	}
	d.awaitingAck = false
	s.rec.AddAckTimeout()
	s.rec.AddQueueDrops(d.queue.PushFront(d.pendFrame.Messages))
	if d.failed {
		return
	}
	d.attempts++
	if d.attempts >= s.cfg.MAC.AckRetryMax {
		return
	}
	s.rec.AddRetransmission()
	at := d.duty.NextFree()
	if b := now + mac.AckBackoff(d.attempts, d.rnd); b > at {
		at = b
	}
	if !d.retryScheduled {
		d.retryScheduled = s.schedule(at, d.retryFn)
	}
}
