package lorawan

import (
	"testing"

	"mlorass/internal/radio"
)

func TestDataRateValidityAndNaming(t *testing.T) {
	if !DR0.Valid() || !DR5.Valid() || DataRate(-1).Valid() || DataRate(6).Valid() {
		t.Fatal("DataRate validity range wrong")
	}
	if got := DR5.String(); got != "DR5(SF7)" {
		t.Fatalf("DR5 renders %q", got)
	}
	if got := DataRate(9).String(); got != "DataRate(9)" {
		t.Fatalf("invalid rate renders %q", got)
	}
	if NumDataRates != 6 {
		t.Fatalf("NumDataRates = %d", NumDataRates)
	}
}

func TestTxPowerLadder(t *testing.T) {
	// The ladder is anchored at the configured operating power: index 0
	// reproduces the fixed-power baseline for any anchor, not just the
	// paper's 14 dBm.
	for _, anchor := range []radio.DBm{14, 10, 0} {
		if got := TxPowerDBm(anchor, 0); got != anchor {
			t.Fatalf("index 0 = %v dBm, want the anchor %v", got, anchor)
		}
		for i := 1; i <= MaxTxPowerIndex; i++ {
			if got, want := TxPowerDBm(anchor, i), TxPowerDBm(anchor, i-1).Minus(TxPowerStepDB); got != want {
				t.Fatalf("anchor %v index %d = %v dBm, want %v", anchor, i, got, want)
			}
		}
		// Out-of-range indices clamp instead of extrapolating.
		if TxPowerDBm(anchor, -3) != TxPowerDBm(anchor, 0) || TxPowerDBm(anchor, 99) != TxPowerDBm(anchor, MaxTxPowerIndex) {
			t.Fatal("ladder does not clamp")
		}
	}
}

func TestLinkADRReqValidateAndApply(t *testing.T) {
	good := LinkADRReq{DataRate: DR3, TxPowerIndex: 2, NbTrans: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if ans := good.Apply(); !ans.Accepted() {
		t.Fatalf("valid command rejected: %+v", ans)
	}
	bad := []LinkADRReq{
		{DataRate: DataRate(7)},
		{DataRate: DR1, TxPowerIndex: -1},
		{DataRate: DR1, TxPowerIndex: MaxTxPowerIndex + 1},
		{DataRate: DR1, NbTrans: -2},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad command %d validated", i)
		}
	}
	// LoRaWAN 1.0.x semantics: a rejected component rejects the command.
	if ans := (LinkADRReq{DataRate: DataRate(9), TxPowerIndex: 0}).Apply(); ans.Accepted() || ans.PowerACK != true || ans.DataRateACK {
		t.Fatalf("out-of-range data rate answered %+v", ans)
	}
}

func TestDownlinkBytes(t *testing.T) {
	if DownlinkBytes(false) != DownlinkOverheadBytes {
		t.Fatal("plain ack size wrong")
	}
	if DownlinkBytes(true) != DownlinkOverheadBytes+LinkADRReqBytes {
		t.Fatal("command downlink size wrong")
	}
	// A command downlink at any data rate has a computable airtime.
	for dr := DR0; dr <= MaxDataRate; dr++ {
		phy := radio.DefaultPHY(dr.SF())
		if phy.Airtime(DownlinkBytes(true)) <= 0 {
			t.Fatalf("non-positive downlink airtime at %v", dr)
		}
	}
	// RX2 (DR0/SF12) is the slowest window: longest airtime.
	slow := radio.DefaultPHY(DefaultRX2DataRate.SF()).Airtime(DownlinkBytes(false))
	fast := radio.DefaultPHY(DR5.SF()).Airtime(DownlinkBytes(false))
	if slow <= fast {
		t.Fatalf("RX2 airtime %v not slower than DR5's %v", slow, fast)
	}
}

func TestRequiredSNRLadder(t *testing.T) {
	if radio.SF7.RequiredSNR() != -7.5 || radio.SF12.RequiredSNR() != -20 {
		t.Fatalf("demod floors: SF7=%v SF12=%v", radio.SF7.RequiredSNR(), radio.SF12.RequiredSNR())
	}
	for sf := radio.SF8; sf <= radio.SF12; sf++ {
		if sf.RequiredSNR() >= (sf - 1).RequiredSNR() {
			t.Fatalf("SF%d floor not below SF%d's", int(sf), int(sf-1))
		}
	}
	if radio.SpreadingFactor(0).RequiredSNR() != 0 {
		t.Fatal("invalid SF floor not zero")
	}
	if nf := radio.NoiseFloorDBm(125000); nf > -116 || nf < -119 {
		t.Fatalf("125 kHz noise floor %v dBm implausible", nf)
	}
}
