package radio

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mlorass/internal/geo"
	"mlorass/internal/rng"
)

func TestSpreadingFactorValid(t *testing.T) {
	for sf := SF7; sf <= SF12; sf++ {
		if !sf.Valid() {
			t.Errorf("%v reported invalid", sf)
		}
	}
	if SpreadingFactor(6).Valid() || SpreadingFactor(13).Valid() {
		t.Error("out-of-range SF reported valid")
	}
}

func TestSensitivityMonotone(t *testing.T) {
	// Higher SF must be more sensitive (lower dBm threshold).
	prev := SF7.Sensitivity()
	for sf := SF8; sf <= SF12; sf++ {
		s := sf.Sensitivity()
		if s >= prev {
			t.Fatalf("%v sensitivity %v not below %v", sf, s, prev)
		}
		prev = s
	}
}

func TestDefaultPHYValidates(t *testing.T) {
	for sf := SF7; sf <= SF12; sf++ {
		p := DefaultPHY(sf)
		if err := p.Validate(); err != nil {
			t.Errorf("DefaultPHY(%v): %v", sf, err)
		}
		if sf >= SF11 && !p.LowDataRateOptimize {
			t.Errorf("DefaultPHY(%v) should enable LDRO", sf)
		}
	}
}

func TestPHYValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*PHYParams)
	}{
		{"bad SF", func(p *PHYParams) { p.SF = 3 }},
		{"zero BW", func(p *PHYParams) { p.BandwidthHz = 0 }},
		{"bad CR low", func(p *PHYParams) { p.CodingRate = 0 }},
		{"bad CR high", func(p *PHYParams) { p.CodingRate = 5 }},
		{"neg preamble", func(p *PHYParams) { p.PreambleSymbols = -1 }},
	}
	for _, tt := range tests {
		p := DefaultPHY(SF7)
		tt.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tt.name)
		}
	}
}

func TestAirtimeKnownValues(t *testing.T) {
	// Reference values from the Semtech AN1200.13 calculator.
	tests := []struct {
		sf      SpreadingFactor
		payload int
		wantMS  float64
		tolMS   float64
	}{
		{SF7, 20, 56.6, 1.0},   // ~56.58 ms
		{SF7, 51, 102.7, 1.5},  // ~102.66 ms
		{SF12, 20, 1318.9, 20}, // ~1318.91 ms with LDRO
	}
	for _, tt := range tests {
		got := DefaultPHY(tt.sf).Airtime(tt.payload).Seconds() * 1000
		if math.Abs(got-tt.wantMS) > tt.tolMS {
			t.Errorf("%v/%dB airtime = %.2f ms, want %.2f±%.1f", tt.sf, tt.payload, got, tt.wantMS, tt.tolMS)
		}
	}
}

func TestAirtimeMonotonicInPayload(t *testing.T) {
	p := DefaultPHY(SF7)
	prev := time.Duration(0)
	for bytes := 0; bytes <= 255; bytes += 5 {
		at := p.Airtime(bytes)
		if at < prev {
			t.Fatalf("airtime decreased at %d bytes", bytes)
		}
		prev = at
	}
}

func TestAirtimeNegativePayloadClamps(t *testing.T) {
	p := DefaultPHY(SF7)
	if p.Airtime(-10) != p.Airtime(0) {
		t.Fatal("negative payload not clamped to zero")
	}
}

func TestPathLossValidation(t *testing.T) {
	if err := DefaultPathLoss().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []PathLoss{
		{Exponent: 0, RefDistM: 40},
		{Exponent: 2, RefDistM: 0},
		{Exponent: 2, RefDistM: 40, ShadowSigmaDB: -1},
	}
	for i, pl := range bad {
		if err := pl.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestMeanLossMonotone(t *testing.T) {
	pl := DefaultPathLoss()
	prev := DB(-math.MaxFloat64)
	for _, d := range []Meters{1, 40, 100, 500, 1000, 5000, 20000} {
		loss := pl.MeanLossDB(d)
		if loss < prev {
			t.Fatalf("loss decreased at %v m", d)
		}
		prev = loss
	}
}

func TestMeanLossClampsBelowRefDist(t *testing.T) {
	pl := DefaultPathLoss()
	if pl.MeanLossDB(1) != pl.MeanLossDB(40) {
		t.Fatal("loss below reference distance not clamped")
	}
}

func TestRSSIShadowingZeroSigmaDeterministic(t *testing.T) {
	pl := DefaultPathLoss()
	pl.ShadowSigmaDB = 0
	if pl.RSSI(14, 500, nil) != pl.MeanRSSI(14, 500) {
		t.Fatal("zero-sigma RSSI differs from mean")
	}
}

// TestSkipShadow: SkipShadow leaves a stream where LossDB's shadowing draw
// does, and draws nothing when shadowing is off or there is no stream.
func TestSkipShadow(t *testing.T) {
	pl := DefaultPathLoss()
	for seed := uint64(0); seed < 100; seed++ {
		took, skipped := rng.New(seed), rng.New(seed)
		pl.LossDB(Meters(40+seed), took)
		pl.SkipShadow(skipped)
		if *took != *skipped {
			t.Fatalf("seed %d: SkipShadow left the stream elsewhere than LossDB", seed)
		}
	}
	pl.ShadowSigmaDB = 0
	r := rng.New(1)
	before := *r
	pl.SkipShadow(r)
	if *r != before {
		t.Fatal("SkipShadow drew with shadowing off")
	}
	pl.ShadowSigmaDB = 7.8
	pl.SkipShadow(nil) // must not panic
}

func newTestMedium(t *testing.T, maxRange Meters) *Medium {
	t.Helper()
	loss := DefaultPathLoss()
	loss.ShadowSigmaDB = 0 // deterministic for tests
	m, err := NewMedium(MediumConfig{
		Loss:           loss,
		SensitivityDBm: SF7.Sensitivity(),
		CaptureDB:      6,
		MaxRangeM:      maxRange,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMediumSimpleReception(t *testing.T) {
	m := newTestMedium(t, 1000)
	tx := m.Begin(1, pt(0, 0), 14, 0, 100*time.Millisecond, "frame")
	rec := m.Receive(tx, pt(500, 0))
	if !rec.OK() {
		t.Fatalf("outcome = %v, want received", rec.Outcome)
	}
	if rec.RSSIDBm >= 0 || rec.RSSIDBm < -124 {
		t.Fatalf("implausible RSSI %v", rec.RSSIDBm)
	}
	if s := m.Stats(); s.Transmissions != 1 || s.Receptions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMediumRangeGate(t *testing.T) {
	m := newTestMedium(t, 1000)
	tx := m.Begin(1, pt(0, 0), 14, 0, time.Millisecond, nil)
	rec := m.Receive(tx, pt(1001, 0))
	if rec.Outcome != OutcomeOutOfRange {
		t.Fatalf("outcome = %v, want out-of-range", rec.Outcome)
	}
}

func TestMediumNoRangeGate(t *testing.T) {
	m := newTestMedium(t, 0)
	tx := m.Begin(1, pt(0, 0), 14, 0, time.Millisecond, nil)
	// 800 m: inside the SF7 mean range (~833 m), no hard gate configured.
	if rec := m.Receive(tx, pt(800, 0)); !rec.OK() {
		t.Fatalf("outcome = %v at 800 m without gate", rec.Outcome)
	}
}

func TestMediumBelowSensitivity(t *testing.T) {
	m := newTestMedium(t, 0)
	tx := m.Begin(1, pt(0, 0), 14, 0, time.Millisecond, nil)
	rec := m.Receive(tx, pt(100000, 0)) // 100 km
	if rec.Outcome != OutcomeBelowSensitivity {
		t.Fatalf("outcome = %v, want below-sensitivity", rec.Outcome)
	}
}

func TestMediumCollision(t *testing.T) {
	m := newTestMedium(t, 0)
	// Two equidistant overlapping transmitters: neither captures.
	tx1 := m.Begin(1, pt(0, 0), 14, 0, 100*time.Millisecond, nil)
	m.Begin(2, pt(1000, 0), 14, 50*time.Millisecond, 150*time.Millisecond, nil)
	rec := m.Receive(tx1, pt(500, 0))
	if rec.Outcome != OutcomeCollision {
		t.Fatalf("outcome = %v, want collision", rec.Outcome)
	}
}

func TestMediumCaptureEffect(t *testing.T) {
	m := newTestMedium(t, 0)
	// Near transmitter is >6 dB stronger than the far interferer at the
	// receiver: capture succeeds.
	tx1 := m.Begin(1, pt(450, 0), 14, 0, 100*time.Millisecond, nil)
	m.Begin(2, pt(5000, 0), 14, 0, 100*time.Millisecond, nil)
	rec := m.Receive(tx1, pt(500, 0))
	if !rec.OK() {
		t.Fatalf("outcome = %v, want captured reception", rec.Outcome)
	}
}

func TestMediumNonOverlappingNoCollision(t *testing.T) {
	m := newTestMedium(t, 0)
	tx1 := m.Begin(1, pt(0, 0), 14, 0, 100*time.Millisecond, nil)
	// Second transmission starts exactly when the first ends: no overlap.
	m.Begin(2, pt(10, 0), 14, 100*time.Millisecond, 200*time.Millisecond, nil)
	if rec := m.Receive(tx1, pt(500, 0)); !rec.OK() {
		t.Fatalf("outcome = %v, want received", rec.Outcome)
	}
}

func TestMediumSameSourceNoSelfInterference(t *testing.T) {
	m := newTestMedium(t, 0)
	// The same node's other frames (e.g. a mistaken double Begin) do not
	// interfere with themselves.
	tx1 := m.Begin(1, pt(0, 0), 14, 0, 100*time.Millisecond, nil)
	m.Begin(1, pt(0, 0), 14, 0, 100*time.Millisecond, nil)
	if rec := m.Receive(tx1, pt(500, 0)); !rec.OK() {
		t.Fatalf("outcome = %v, want received", rec.Outcome)
	}
}

func TestMediumPrunesOldTransmissions(t *testing.T) {
	m := newTestMedium(t, 0)
	for i := 0; i < 100; i++ {
		start := time.Duration(i) * time.Second
		tx := m.Begin(i, pt(0, 0), 14, start, start+10*time.Millisecond, nil)
		m.Receive(tx, pt(100, 0))
	}
	if n := m.ActiveCount(); n > 2 {
		t.Fatalf("active list grew to %d, pruning broken", n)
	}
}

func TestNewMediumValidation(t *testing.T) {
	if _, err := NewMedium(MediumConfig{Loss: PathLoss{}}); err == nil {
		t.Fatal("invalid path loss accepted")
	}
	if _, err := NewMedium(MediumConfig{Loss: DefaultPathLoss(), CaptureDB: -1}); err == nil {
		t.Fatal("negative capture threshold accepted")
	}
}

// Property: airtime is always positive and under 3 s for LoRaWAN payloads.
func TestQuickAirtimeBounds(t *testing.T) {
	f := func(payload uint8, sfRaw uint8) bool {
		sf := SF7 + SpreadingFactor(sfRaw%6)
		at := DefaultPHY(sf).Airtime(int(payload))
		// SF12 with a full 255-byte payload tops out below 10 s; every
		// LoRaWAN-legal combination is far shorter.
		return at > 0 && at < 10*time.Second
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean RSSI decreases with distance.
func TestQuickRSSIMonotone(t *testing.T) {
	pl := DefaultPathLoss()
	f := func(a, b uint16) bool {
		da, db := Meters(a)+1, Meters(b)+1
		if da > db {
			da, db = db, da
		}
		return pl.MeanRSSI(14, da) >= pl.MeanRSSI(14, db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAirtime(b *testing.B) {
	p := DefaultPHY(SF7)
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink = p.Airtime(i % 255)
	}
	_ = sink
}

func BenchmarkMediumReceive(b *testing.B) {
	loss := DefaultPathLoss()
	m, err := NewMedium(MediumConfig{Loss: loss, SensitivityDBm: SF7.Sensitivity(), CaptureDB: 6, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tx := m.Begin(1, pt(0, 0), 14, 0, 50*time.Millisecond, nil)
	rx := pt(400, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Receive(tx, rx)
	}
}

func pt(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

// TestMediumStatsMergeSumsEveryField: the tile engine's channel counters are
// the merge of its tiles' media, so a field Merge forgot would read zero.
func TestMediumStatsMergeSumsEveryField(t *testing.T) {
	var tile MediumStats
	v := reflect.ValueOf(&tile).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum MediumStats
	sum.Merge(tile)
	sum.Merge(tile)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := uint64(2 * (i + 1)); got.Field(i).Uint() != want {
			t.Errorf("MediumStats.Merge: field %s = %d after two merges, want %d",
				got.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
}
