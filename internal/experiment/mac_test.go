package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mlorass/internal/radio"
)

// macTestConfig is a small-but-dense scenario for MAC behaviour tests.
func macTestConfig() Config {
	cfg := QuickConfig()
	cfg.Duration = 2 * time.Hour
	return cfg
}

func TestMACConfigZeroValueOff(t *testing.T) {
	var m MACConfig
	if m.Enabled() {
		t.Fatal("zero MACConfig reports enabled")
	}
	cfg := macTestConfig()
	cfg.Normalize()
	if cfg.MAC != (MACConfig{}) {
		t.Fatalf("Normalize mutated a zero MAC config: %+v", cfg.MAC)
	}
	// An enabled config gets its defaults filled.
	cfg.MAC.ADR = true
	cfg.Normalize()
	if cfg.MAC.ADRMarginDB != 10 || cfg.MAC.ADRHistory != 20 ||
		cfg.MAC.RX1Delay != time.Second || cfg.MAC.RX2Delay != 2*time.Second ||
		cfg.MAC.DownlinkDutyCycle != 0.1 || cfg.MAC.AckRetryMax != 8 {
		t.Fatalf("enabled MAC defaults not filled: %+v", cfg.MAC)
	}
	// The downlink power default resolves to the device power at
	// Normalize time, so the echoed config shows what the run used.
	if cfg.MAC.DownlinkTxPowerDBm != cfg.TxPowerDBm {
		t.Fatalf("downlink power %v not resolved to device power %v",
			cfg.MAC.DownlinkTxPowerDBm, cfg.TxPowerDBm)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMACConfigValidate(t *testing.T) {
	bad := []func(*MACConfig){
		func(m *MACConfig) { m.ADRMarginDB = -1 },
		func(m *MACConfig) { m.ADRHistory = -2 },
		func(m *MACConfig) { m.ADRMinHistory = 99 },
		func(m *MACConfig) { m.RX2Delay = m.RX1Delay },
		func(m *MACConfig) { m.DownlinkDutyCycle = 1.5 },
		func(m *MACConfig) { m.AckRetryMax = -1 },
		func(m *MACConfig) { m.InitialSF = 99 },
	}
	for i, mutate := range bad {
		cfg := macTestConfig()
		cfg.MAC.Confirmed = true
		cfg.Normalize()
		mutate(&cfg.MAC)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad MAC config %d validated", i)
		}
	}
}

// TestZeroMACHasNoMACTraffic: the zero-valued MAC config must not produce a
// single downlink, retransmission, or ADR command — the structural half of
// the zero-value-off invariant (the byte-identity half is the golden tests).
func TestZeroMACHasNoMACTraffic(t *testing.T) {
	res, err := Run(macTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Downlinks != 0 || res.DownlinkDeliveries != 0 || res.DownlinkDrops != 0 ||
		res.AckTimeouts != 0 || res.Retransmissions != 0 ||
		res.ADRCommands != 0 || res.ADRApplied != 0 {
		t.Fatalf("zero-MAC run produced MAC traffic: %+v", res)
	}
	// Every uplink frame sits on the configured SF.
	if n := res.Telemetry.SF.Total(); n != res.Telemetry.Counters.FramesOnAir {
		t.Fatalf("SF histogram counted %d frames, %d on air", n, res.Telemetry.Counters.FramesOnAir)
	}
	if got := res.Telemetry.SF.MeanSF(); got != float64(res.Config.SF) {
		t.Fatalf("mean SF %v, want the configured SF%d", got, int(res.Config.SF))
	}
}

// TestZeroValueMACByteIdentity is the acceptance-criterion test: a config
// whose MAC field is explicitly zeroed renders the exact golden bytes
// captured before the MAC subsystem existed (same files the plain golden
// tests lock, asserted here under an explicit MAC zero value so the
// invariant survives even if future defaults change).
func TestZeroValueMACByteIdentity(t *testing.T) {
	var rep string
	for _, scheme := range Schemes() {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = scheme
		cfg.MAC = MACConfig{}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep += res.Report()
	}
	goldenCompare(t, "report_quick_seed1.golden", rep)
}

// TestConfirmedTrafficBehaviour exercises the confirmed-downlink path: acks
// flow, some are lost (timeouts, retransmissions, duplicates at the server),
// and the run stays deterministic.
func TestConfirmedTrafficBehaviour(t *testing.T) {
	cfg := macTestConfig()
	cfg.MAC.Confirmed = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Downlinks == 0 {
		t.Fatal("confirmed run produced no downlinks")
	}
	if res.DownlinkDeliveries == 0 || res.DownlinkDeliveries > res.Downlinks {
		t.Fatalf("downlink deliveries %d of %d on air", res.DownlinkDeliveries, res.Downlinks)
	}
	// Every ack timeout must have triggered a retransmission or exhausted
	// the budget; retransmissions never exceed timeouts.
	if res.Retransmissions > res.AckTimeouts {
		t.Fatalf("%d retransmissions from %d timeouts", res.Retransmissions, res.AckTimeouts)
	}
	// Telemetry counters mirror the Result fields.
	c := res.Telemetry.Counters
	if c.Downlinks != res.Downlinks || c.DownlinkDeliveries != res.DownlinkDeliveries ||
		c.AckTimeouts != res.AckTimeouts || c.Retransmissions != res.Retransmissions ||
		c.DownlinkDrops != res.DownlinkDrops {
		t.Fatalf("telemetry counters diverge from result: %+v vs %+v", c, res)
	}
	if res.Delivered == 0 {
		t.Fatal("confirmed run delivered nothing")
	}
}

// TestADRAdaptsDataRates: devices joining at SF12 with a healthy gateway
// density must be commanded to faster rates, and the SF histogram must show
// uplinks across multiple spreading factors.
func TestADRAdaptsDataRates(t *testing.T) {
	cfg := macTestConfig()
	cfg.MAC.ADR = true
	cfg.MAC.InitialSF = radio.SF12
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ADRCommands == 0 || res.ADRApplied == 0 {
		t.Fatalf("ADR issued %d commands, %d applied — no adaptation", res.ADRCommands, res.ADRApplied)
	}
	if res.ADRApplied > res.ADRCommands {
		t.Fatalf("%d applied > %d issued", res.ADRApplied, res.ADRCommands)
	}
	mean := res.Telemetry.SF.MeanSF()
	if mean >= 12 || mean < 7 {
		t.Fatalf("mean uplink SF %v: no climb from SF12 toward SF7", mean)
	}
	if res.Telemetry.SF[0] == 0 {
		t.Fatal("no uplink ever reached SF7 despite ADR")
	}
	if res.Telemetry.SF[5] == 0 {
		t.Fatal("no uplink at the SF12 join rate — InitialSF ignored")
	}
}

// TestADRHighDutyFreshestDownlinkWins: at a generous uplink duty cycle an
// unconfirmed device can uplink again before its previous ADR downlink
// lands, replacing it; the replaced downlink's resolution event must no-op
// rather than resolve the replacement before its own end (regression: the
// stale event used to consume the fresh transmission early).
func TestADRHighDutyFreshestDownlinkWins(t *testing.T) {
	cfg := macTestConfig()
	cfg.DutyCycle = 0.5
	cfg.MsgInterval = 30 * time.Second
	cfg.MAC.ADR = true
	cfg.MAC.InitialSF = radio.SF12
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Downlinks == 0 {
		t.Fatal("scenario produced no downlinks — regression surface not exercised")
	}
	if a.DownlinkDeliveries > a.Downlinks {
		t.Fatalf("%d deliveries from %d downlinks", a.DownlinkDeliveries, a.Downlinks)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatal("high-duty ADR run not deterministic")
	}
}

// TestADRCommandsCounterConsistency: the recorder counts the ADR commands the
// network server issues (regression: the counter used to stay 0), and the
// Result reads its MAC tallies from the recorder.
func TestADRCommandsCounterConsistency(t *testing.T) {
	cfg := macTestConfig()
	cfg.MAC.ADR = true
	cfg.MAC.InitialSF = radio.SF12
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ADRCommands == 0 {
		t.Fatal("no commands issued — consistency check vacuous")
	}
	if got := res.Telemetry.Counters.ADRCommands; got != res.ADRCommands {
		t.Fatalf("telemetry ADRCommands %d != result %d", got, res.ADRCommands)
	}
	if got := res.Telemetry.Counters.ADRApplied; got != res.ADRApplied {
		t.Fatalf("telemetry ADRApplied %d != result %d", got, res.ADRApplied)
	}
}

// TestADRMonotoneMarginEffect: raising the installation margin (less
// aggressive adaptation) must not speed the network up — the sim-level echo
// of the mac package's monotonicity property.
func TestADRMonotoneMarginEffect(t *testing.T) {
	mean := func(margin float64) float64 {
		cfg := macTestConfig()
		cfg.MAC.ADR = true
		cfg.MAC.InitialSF = radio.SF12
		cfg.MAC.ADRMarginDB = margin
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Telemetry.SF.MeanSF()
	}
	aggressive, conservative := mean(5), mean(20)
	if conservative < aggressive {
		t.Fatalf("margin 20 dB yielded faster mean SF (%v) than 5 dB (%v)", conservative, aggressive)
	}
}

// TestMACDeterminism: identical MAC configs and seeds reproduce identical
// reports; different seeds differ.
func TestMACDeterminism(t *testing.T) {
	cfg := macTestConfig()
	cfg.MAC.ADR = true
	cfg.MAC.Confirmed = true
	cfg.MAC.InitialSF = radio.SF12
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a.Report(), b.Report())
	}
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() == c.Report() {
		t.Fatal("different seeds produced identical MAC runs")
	}
}

// adrGoldenConfig is the scenario the ADRTable goldens lock: the small sweep
// world so two full mode × gateway grids stay test-suite fast.
func adrGoldenConfig(seed uint64) Config {
	cfg := sweepTestConfig()
	cfg.Seed = seed
	return cfg
}

// TestGoldenADRTable locks the new figure's bytes under two seeds: the
// determinism lock for the ADR subsystem, exactly like the Fig 8/9/12/13 and
// outage-table goldens.
func TestGoldenADRTable(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			points, err := ADRGrid.Sweep(adrGoldenConfig(seed), Urban, SweepOptions{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, fmt.Sprintf("adr_table_small_seed%d.golden", seed), ADRTable(points))
		})
	}
}

// TestADRSweepParallelMatchesSerial: the ADR sweep through the worker pool
// is order-independent.
func TestADRSweepParallelMatchesSerial(t *testing.T) {
	base := adrGoldenConfig(1)
	serial, err := ADRGrid.Sweep(base, Urban, SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var updates []CellUpdate
	parallel, err := ADRGrid.Sweep(base, Urban, SweepOptions{Workers: 4}, func(u CellUpdate) { updates = append(updates, u) })
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != len(parallel) {
		t.Fatalf("progress reported %d of %d cells", len(updates), len(parallel))
	}
	if got, want := ADRTable(parallel), ADRTable(serial); got != want {
		t.Fatalf("parallel ADR table differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !strings.Contains(ADRTable(serial), "fixed-SF") {
		t.Fatal("table lost its baseline column")
	}
}
