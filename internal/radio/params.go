// Package radio implements the LoRa physical layer the simulation runs on:
// spreading-factor parameters, the Semtech time-on-air formula, a
// log-distance path-loss model with shadowing (exponent 2.32, the sub-urban
// calibration the paper cites from Petäjäjärvi et al.), RSSI computation, and
// a shared-channel medium with collision and capture-effect modelling.
//
// This package is the reproduction's substitute for the FLoRa framework on
// OMNeT++: it implements exactly the PHY subset the
// paper's evaluation exercises — one channel, a fixed spreading factor, 1 %
// duty cycle enforced above this layer, and range-gated links.
package radio

import (
	"fmt"
	"math"
	"time"
)

// SpreadingFactor is a LoRa spreading factor, SF7 through SF12.
type SpreadingFactor int

// Supported spreading factors. The paper's evaluation fixes SF7 (Sec.
// VII-A5) because adaptive data rate degrades under mobility.
const (
	SF7 SpreadingFactor = iota + 7
	SF8
	SF9
	SF10
	SF11
	SF12
)

// Valid reports whether the spreading factor is in [SF7, SF12].
func (sf SpreadingFactor) Valid() bool { return sf >= SF7 && sf <= SF12 }

// String renders e.g. "SF7".
func (sf SpreadingFactor) String() string { return fmt.Sprintf("SF%d", int(sf)) }

// Sensitivity returns the receiver sensitivity in dBm for this spreading
// factor at 125 kHz bandwidth (SX1276 datasheet values, as used by FLoRa).
func (sf SpreadingFactor) Sensitivity() DBm {
	switch sf {
	case SF7:
		return -124
	case SF8:
		return -127
	case SF9:
		return -130
	case SF10:
		return -133
	case SF11:
		return -135
	case SF12:
		return -137
	default:
		return 0
	}
}

// RequiredSNR returns the minimum demodulation SNR in dB for this spreading
// factor (SX1276 datasheet: -7.5 dB at SF7 down to -20 dB at SF12, 2.5 dB
// per step). It is the floor the ADR margin computation measures against.
func (sf SpreadingFactor) RequiredSNR() DB {
	if !sf.Valid() {
		return 0
	}
	return DB(-7.5 - 2.5*float64(sf-SF7))
}

// NoiseFigureDB is the receiver noise figure assumed by the SNR conversion
// (a typical LoRa gateway front end).
const NoiseFigureDB DB = 6

// NoiseFloorDBm returns the thermal noise floor for the given bandwidth:
// -174 dBm/Hz + 10·log10(BW) + noise figure. For the 125 kHz LoRaWAN
// channel this is ≈ -117 dBm.
func NoiseFloorDBm(bw Hz) DBm {
	if bw <= 0 {
		return 0
	}
	return DBm(-174 + 10*math.Log10(float64(bw)) + float64(NoiseFigureDB))
}

// SNRFromRSSI converts a received signal strength to SNR against the
// bandwidth's noise floor — the quantity the network server's ADR history
// records per uplink.
func SNRFromRSSI(rssi DBm, bw Hz) DB {
	return rssi.Sub(NoiseFloorDBm(bw))
}

// PHYParams describes one LoRa transmission configuration.
type PHYParams struct {
	// SF is the spreading factor.
	SF SpreadingFactor
	// BandwidthHz is the channel bandwidth; LoRaWAN EU868 data channels
	// use 125 kHz.
	BandwidthHz Hz
	// CodingRate is the coding-rate denominator offset: 1 for 4/5 ... 4
	// for 4/8. LoRaWAN uses 4/5.
	CodingRate int
	// PreambleSymbols is the preamble length; LoRaWAN uses 8.
	PreambleSymbols int
	// ExplicitHeader enables the PHY header (LoRaWAN always does).
	ExplicitHeader bool
	// CRC enables the payload CRC (LoRaWAN uplinks always do).
	CRC bool
	// LowDataRateOptimize must be enabled for SF11/SF12 at 125 kHz.
	LowDataRateOptimize bool
}

// DefaultPHY returns the LoRaWAN EU868 configuration the paper evaluates:
// the given spreading factor at 125 kHz, CR 4/5, 8-symbol preamble, explicit
// header and CRC, with low-data-rate optimisation switched on automatically
// for SF11/SF12.
func DefaultPHY(sf SpreadingFactor) PHYParams {
	return PHYParams{
		SF:                  sf,
		BandwidthHz:         125000,
		CodingRate:          1,
		PreambleSymbols:     8,
		ExplicitHeader:      true,
		CRC:                 true,
		LowDataRateOptimize: sf >= SF11,
	}
}

// Validate reports configuration errors.
func (p PHYParams) Validate() error {
	if !p.SF.Valid() {
		return fmt.Errorf("radio: invalid spreading factor %d", int(p.SF))
	}
	if p.BandwidthHz <= 0 {
		return fmt.Errorf("radio: bandwidth %v Hz must be positive", p.BandwidthHz)
	}
	if p.CodingRate < 1 || p.CodingRate > 4 {
		return fmt.Errorf("radio: coding rate offset %d out of [1,4]", p.CodingRate)
	}
	if p.PreambleSymbols < 0 {
		return fmt.Errorf("radio: negative preamble length %d", p.PreambleSymbols)
	}
	return nil
}

// SymbolTime returns the duration of one LoRa symbol: 2^SF / BW.
func (p PHYParams) SymbolTime() time.Duration {
	sec := math.Exp2(float64(p.SF)) / float64(p.BandwidthHz)
	return time.Duration(sec * float64(time.Second))
}

// Airtime returns the on-air duration of a packet with payloadBytes of PHY
// payload, using the Semtech SX1276 formula (AN1200.13). This drives both
// the collision window and the 1 % duty-cycle budget.
func (p PHYParams) Airtime(payloadBytes int) time.Duration {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	ts := math.Exp2(float64(p.SF)) / float64(p.BandwidthHz) // seconds per symbol
	preamble := (float64(p.PreambleSymbols) + 4.25) * ts

	de := 0.0
	if p.LowDataRateOptimize {
		de = 1
	}
	h := 1.0 // 1 => no explicit header
	if p.ExplicitHeader {
		h = 0
	}
	crc := 0.0
	if p.CRC {
		crc = 1
	}
	num := 8*float64(payloadBytes) - 4*float64(p.SF) + 28 + 16*crc - 20*h
	den := 4 * (float64(p.SF) - 2*de)
	payloadSymb := 8.0
	if num > 0 {
		payloadSymb += math.Ceil(num/den) * float64(p.CodingRate+4)
	}
	total := preamble + payloadSymb*ts
	return time.Duration(total * float64(time.Second))
}

// BitRate returns the nominal PHY bit rate in bits per second:
// SF * BW / 2^SF * CR. For SF7/125 kHz CR4/5 this is about 5.5 kbit/s; the
// paper's headline "2.5 bit/s" figure for SF12 arises after the 1 % duty
// cycle is applied on top (handled by the MAC layer).
func (p PHYParams) BitRate() float64 {
	cr := 4.0 / float64(4+p.CodingRate)
	return float64(p.SF) * float64(p.BandwidthHz) / math.Exp2(float64(p.SF)) * cr
}

// DutyCycleWait returns how long a transmitter must stay silent after a
// transmission of duration airtime to respect the duty-cycle fraction (e.g.
// 0.01 for the 1 % EU868 general data channels): wait = airtime/duty -
// airtime.
func DutyCycleWait(airtime time.Duration, duty float64) time.Duration {
	if duty <= 0 || duty >= 1 {
		return 0
	}
	total := float64(airtime) / duty
	return time.Duration(total) - airtime
}
