package experiment

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/tfl"
)

func TestCacheKeyDeterministicAndSensitive(t *testing.T) {
	cfg := sweepTestConfig()
	k1, ok1 := cacheKey(cfg)
	k2, ok2 := cacheKey(cfg)
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("cache key unstable: %q/%v vs %q/%v", k1, ok1, k2, ok2)
	}
	// Normalized and un-normalized forms of the same config share a key.
	norm := cfg
	norm.Normalize()
	if kn, _ := cacheKey(norm); kn != k1 {
		t.Fatal("normalization changed the cache key")
	}
	// Every semantic change must change the key.
	variants := map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed = 99 },
		"scheme":   func(c *Config) { c.Scheme = routing.SchemeROBC },
		"gateways": func(c *Config) { c.NumGateways = 7 },
		"duration": func(c *Config) { c.Duration = 3 * time.Hour },
		"alpha":    func(c *Config) { c.Alpha = 0.9 },
		"outage":   func(c *Config) { c.Disruption.GatewayOutageFraction = 0.5 },
		"mobility": func(c *Config) { c.Mobility.Model = MobilityRandomWaypoint },
		"mac-adr":  func(c *Config) { c.MAC.ADR = true },
		"mac-conf": func(c *Config) { c.MAC.Confirmed = true },
	}
	for name, mutate := range variants {
		c := cfg
		mutate(&c)
		if kv, ok := cacheKey(c); !ok || kv == k1 {
			t.Errorf("%s change did not change the cache key", name)
		}
	}
	// The tile count leaves results bit-identical, so it is not keyed.
	tiles := cfg
	for _, n := range []int{1, 2, 8} {
		tiles.Shards = n
		if kn, _ := cacheKey(tiles); kn != k1 {
			t.Errorf("Shards %d keys differently from the default", n)
		}
	}
	// An explicit dataset is uncacheable.
	withDS := cfg
	withDS.Dataset = &tfl.Dataset{}
	if _, ok := cacheKey(withDS); ok {
		t.Fatal("explicit dataset reported cacheable")
	}
}

// roundTripConfigs are the configurations the artefact round trip and its
// integrity invariants are checked on: every subsystem that adds fields to
// a Result, two tiles, and a run that delivers nothing. A real artefact failing decodeResult's invariants would be
// recomputed on every load, so each must decode.
func roundTripConfigs() map[string]Config {
	adr, confirmed := macTestConfig(), macTestConfig()
	adr.MAC.ADR = true
	confirmed.MAC.ADR, confirmed.MAC.Confirmed = true, true
	disrupted := sweepTestConfig()
	disrupted.Disruption.GatewayOutageFraction = 0.5
	disrupted.Disruption.DeviceChurnFraction = 0.25
	disruptedRWP := tinyScenario(MobilityRandomWaypoint)
	disruptedRWP.Disruption.GatewayOutageFraction = 0.4
	disruptedRWP.Disruption.DeviceChurnFraction = 0.2
	sharded := telemetryTestConfig()
	sharded.Shards = 2
	nothingDelivered := tinyConfig()
	nothingDelivered.Disruption.GatewayOutageFraction = 1
	nothingDelivered.Disruption.OutageDuration = nothingDelivered.Duration
	return map[string]Config{
		"telemetry":         telemetryTestConfig(),
		"sweep cell":        sweepTestConfig(),
		"random waypoint":   tinyScenario(MobilityRandomWaypoint),
		"sensor grid":       tinyScenario(MobilitySensorGrid),
		"adr":               adr,
		"adr confirmed":     confirmed,
		"disruption":        disrupted,
		"disrupted rwp":     disruptedRWP,
		"shards 2":          sharded,
		"nothing delivered": nothingDelivered,
	}
}

// TestResultArtifactRoundTrip decodes every exported Result field but Config
// deep-equal to the run's, for every round-trip config plus a MAC run whose
// queues overflow. That run moves every tally the artefact stores only in
// the telemetry counters, so a tally the decoder fails to refill fails here.
func TestResultArtifactRoundTrip(t *testing.T) {
	cfgs := roundTripConfigs()
	cfgs["mac overflow"] = macOverflowConfig()
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			res := mustRun(t, cfg)
			if name == "nothing delivered" && res.Delivered != 0 {
				t.Fatalf("zero-delivery config delivered %d", res.Delivered)
			}
			data, err := encodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeResult(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, back, res)
			got, want := reflect.ValueOf(back).Elem(), reflect.ValueOf(res).Elem()
			for i := 0; i < want.NumField(); i++ {
				f := want.Type().Field(i)
				if !f.IsExported() || f.Name == "Config" {
					continue
				}
				if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
					t.Errorf("decoded %s = %+v, want %+v", f.Name, got.Field(i).Interface(), want.Field(i).Interface())
				}
				if name == "mac overflow" && f.Tag.Get("json") == "-" && want.Field(i).IsZero() {
					t.Errorf("%s is zero: its round trip is vacuous", f.Name)
				}
			}
		})
	}
}

// requireSameResult fails unless got is a bit-exact decode of want.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.String() != want.String() || got.Report() != want.Report() {
		t.Fatal("decoded artefact renders differently")
	}
	if got.Delay != want.Delay || got.Hops != want.Hops || got.Delivered != want.Delivered {
		t.Fatal("decoded artefact summaries differ")
	}
	if got.Telemetry.Delay.Percentile(99) != want.Telemetry.Delay.Percentile(99) {
		t.Fatal("decoded telemetry percentiles differ")
	}
	bitEqual := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !slices.EqualFunc(got.rawDelays, want.rawDelays, bitEqual) {
		t.Fatal("decoded raw delays differ bit for bit")
	}
	if !slices.Equal(got.originDelivered, want.originDelivered) {
		t.Fatal("decoded delivery origins differ")
	}
	if got.MatchedDelayMean(100) != want.MatchedDelayMean(100) {
		t.Fatal("decoded matched-coverage mean differs")
	}
	if !slices.Equal(got.Throughput.Counts(), want.Throughput.Counts()) {
		t.Fatal("decoded throughput series differs")
	}
}

// BenchmarkResultCodec times the artefact codec alone on one quick cell:
// the encode every store-backed cell pays once, and the decode the farm
// coordinator pays per Verify and per Absorb.
func BenchmarkResultCodec(b *testing.B) {
	cfg := QuickConfig()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data, err := encodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := encodeResult(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeResult(data, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepTables renders every aggregate figure table for comparison.
func sweepTables(points []AggregatePoint) string {
	return fmt.Sprintf("%s\n%s\n%s\n%s\n%s",
		Fig8AggTable(points), Fig8PercentilesAggTable(points),
		Fig9AggTable(points), Fig12AggTable(points), Fig13AggTable(points))
}

// TestParallelSweepStoreRoundTrip is the resumability acceptance test, for
// every sweep grid: a repeated sweep against the same store re-simulates
// nothing (every cell loads from cache) and renders byte-identical tables.
func TestParallelSweepStoreRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		grid Grid
	}{{"figure", FigureGrid}, {"outage", OutageGrid}, {"adr", ADRGrid}} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := runstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			base := sweepTestConfig()
			opts := SweepOptions{Workers: 4, Reps: 2, Store: store}
			_, layout := layoutSweep(tc.grid, base, Urban, opts.Reps)
			jobs := len(layout)
			sweep := func() (tables string, cached, total int) {
				points, err := tc.grid.Sweep(base, Urban, opts, func(u CellUpdate) {
					total++
					if u.Cached {
						cached++
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				tc.grid.Render(&b, points, opts.Reps, true)
				return b.String(), cached, total
			}

			first, cached, _ := sweep()
			if cached != 0 {
				t.Fatalf("cold sweep reported %d cached cells", cached)
			}
			if st := store.Stats(); st.Puts != uint64(jobs) {
				t.Fatalf("cold sweep persisted %d artefacts, want %d", st.Puts, jobs)
			}
			second, cached, total := sweep()
			if cached != jobs || total != jobs {
				t.Fatalf("warm sweep re-simulated %d of %d cells, want 0 of %d", total-cached, total, jobs)
			}
			if st := store.Stats(); st.Puts != uint64(jobs) {
				t.Fatalf("warm sweep wrote %d extra artefacts", st.Puts-uint64(jobs))
			}
			// For the figure grid this includes replication 0's raw
			// samples (the matched-coverage table).
			if second != first {
				t.Fatalf("cached sweep tables differ:\n--- got ---\n%s\n--- want ---\n%s", second, first)
			}
		})
	}
}

// TestParallelSweepStoreResume simulates an interrupted sweep: a store
// pre-populated with only some cells loads those and simulates the rest.
func TestParallelSweepStoreResume(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := sweepTestConfig()

	// "Interrupted" first pass: persist just two cells by hand.
	prePopulated := 0
	for _, gw := range GatewaySweep()[:2] {
		cfg := base
		cfg.Environment = Urban
		cfg.D2DRangeM = 0
		cfg.NumGateways = gw
		cfg.Scheme = routing.SchemeNoRouting
		cfg.Seed = RepSeed(base.Seed, 0)
		if _, cached, err := runThroughStore(store, cfg, nil); err != nil || cached {
			t.Fatalf("pre-populate: cached=%v err=%v", cached, err)
		}
		prePopulated++
	}

	cachedSeen := 0
	points, err := ParallelSweepFunc(base, Urban, SweepOptions{Workers: 2, Reps: 1, Store: store}, func(u CellUpdate) {
		if u.Cached {
			cachedSeen++
			if u.Scheme != routing.SchemeNoRouting || u.Gateways > GatewaySweep()[1] {
				t.Errorf("unexpected cached cell %v/gw=%d", u.Scheme, u.Gateways)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cachedSeen != prePopulated {
		t.Fatalf("resume loaded %d cached cells, want %d", cachedSeen, prePopulated)
	}
	// The resumed sweep matches a from-scratch sweep exactly.
	fresh, err := ParallelSweep(base, Urban, SweepOptions{Workers: 2, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sweepTables(points) != sweepTables(fresh) {
		t.Fatal("resumed sweep tables differ from from-scratch sweep")
	}
}

// corruption is one damaged artefact; want, when set, is a fragment of the
// error decodeResult must reject it with, pinning the check that catches it.
type corruption struct {
	data []byte
	want string
}

// artefactCorruptions derives damaged artefacts from genuine, the encoding
// of res: files that still parse as JSON (a crash mid-rewrite, a hand-edited
// store, disk corruption landing on a value) and must all read as
// corruption.
func artefactCorruptions(t testing.TB, genuine []byte, res *Result) map[string]corruption {
	t.Helper()
	if res.Delivered < 2 {
		t.Fatalf("genuine artefact delivers %d messages; the corpus needs at least 2", res.Delivered)
	}
	// mutate re-encodes genuine with one field changed.
	mutate := func(f func(a *resultArtifact)) []byte {
		var a resultArtifact
		if err := json.Unmarshal(genuine, &a); err != nil {
			t.Fatal(err)
		}
		f(&a)
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	packOrigins := func(origins []int) []byte {
		var b []byte
		for _, o := range origins {
			b = binary.AppendVarint(b, int64(o))
		}
		return b
	}
	origins := res.originDelivered
	oneDelay := base64.StdEncoding.EncodeToString(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)))
	return map[string]corruption{
		"empty file":                            {data: []byte{}},
		"json null":                             {data: []byte("null")},
		"garbage":                               {data: []byte("\x00\xff\x17 not json at all")},
		"truncated mid-token":                   {data: genuine[:len(genuine)/2]},
		"valid json, current schema, no fields": {data: []byte(fmt.Sprintf(`{"schema":%d}`, storeSchemaVersion))},
		"schema only, no throughput":            {data: []byte(fmt.Sprintf(`{"schema":%d,"delivered":3}`, storeSchemaVersion))},
		"inconsistent delivery samples": {
			data: []byte(fmt.Sprintf(`{"schema":%d,"delivered":3,"throughput":{"bin":600000000000,"horizon":600000000000,"counts":[3]},"telemetry":{"counters":{"Generated":3,"ServerFresh":3}},"raw_delays":%q}`,
				storeSchemaVersion, oneDelay)),
			want: "delay column",
		},
		"stale schema": {data: []byte(`{"schema":1}`), want: "schema 1"},
		"delay column one byte short": {
			data: mutate(func(a *resultArtifact) { a.RawDelays = a.RawDelays[:len(a.RawDelays)-1] }),
			want: "delay column",
		},
		"delay column one entry long": {
			data: mutate(func(a *resultArtifact) { a.RawDelays = append(a.RawDelays, make([]byte, 8)...) }),
			want: "delay column",
		},
		// 8*Delivered wraps to the column's true length, so a length check
		// by multiplication would pass this and size a 2^61-entry slice.
		"huge forged delivered": {
			data: mutate(func(a *resultArtifact) { a.Delivered += 1 << 61 }),
			want: "delay column",
		},
		"truncated origin varint": {
			data: mutate(func(a *resultArtifact) {
				a.OriginDelivered = append(packOrigins(origins[:len(origins)-1]), 0x80)
			}),
			want: "origin column corrupt",
		},
		"one origin too many": {
			data: mutate(func(a *resultArtifact) { a.OriginDelivered = packOrigins(append(slices.Clone(origins), 0)) }),
			want: "origin column corrupt",
		},
		"one origin too few": {
			data: mutate(func(a *resultArtifact) { a.OriginDelivered = packOrigins(origins[:len(origins)-1]) }),
			want: "origin column holds",
		},
		"non-base64 column": {
			data: bytes.Replace(genuine, []byte(`"raw_delays":"`), []byte(`"raw_delays":"*`), 1),
			want: "base64",
		},
		"generated below delivered": {
			data: mutate(func(a *resultArtifact) { a.Telemetry.Counters.Generated = uint64(a.Delivered) - 1 }),
			want: "exceeds generated",
		},
		// A leading digit raises the first throughput bucket.
		"throughput series off the deliveries": {
			data: bytes.Replace(genuine, []byte(`"counts":[`), []byte(`"counts":[1`), 1),
			want: "throughput series sums",
		},
		"server counters off the deliveries": {
			data: mutate(func(a *resultArtifact) { a.Telemetry.Counters.ServerFresh++ }),
			want: "server counters",
		},
	}
}

// TestRunThroughStoreTruncatedArtefact is the regression test for the
// truncated-artefact family: damaged files that still parse as JSON must
// read as corruption and be recomputed, never served as a cached cell. The
// nastiest case — `{"schema":N}` with the current schema number —
// previously decoded "successfully" into an all-zero Result with a nil
// throughput series.
func TestRunThroughStoreTruncatedArtefact(t *testing.T) {
	cfg := sweepTestConfig()
	key, ok := cacheKey(cfg)
	if !ok {
		t.Fatal("config not cacheable")
	}
	// A genuine artefact, to derive realistic damage from.
	real := mustRun(t, cfg)
	genuine, err := encodeResult(real)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range artefactCorruptions(t, genuine, real) {
		t.Run(name, func(t *testing.T) {
			_, err := decodeResult(c.data, cfg)
			if err == nil {
				t.Fatal("corrupt artefact decoded")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("rejected with %q, want an error mentioning %q", err, c.want)
			}
			store, err := runstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(key, c.data); err != nil {
				t.Fatal(err)
			}
			res, cached, err := runThroughStore(store, cfg, nil)
			if err != nil {
				t.Fatalf("corrupt artefact failed the cell: %v", err)
			}
			if cached {
				t.Fatal("corrupt artefact served as a cached result")
			}
			if res.Throughput == nil || res.Delivered == 0 {
				t.Fatal("recomputed cell is not a real run")
			}
			// The recompute repaired the entry: the next read hits and
			// round-trips the real result.
			res2, cached2, err := runThroughStore(store, cfg, nil)
			if err != nil || !cached2 {
				t.Fatalf("after repair: cached=%v err=%v", cached2, err)
			}
			if res2.Report() != res.Report() {
				t.Fatal("repaired artefact renders differently")
			}
		})
	}
}

// FuzzDecodeResult feeds decodeResult hostile bytes, seeded with a genuine
// artefact and the corruption corpus. It must never panic, and anything it
// accepts must survive a re-encode bit for bit.
func FuzzDecodeResult(f *testing.F) {
	cfg := sweepTestConfig()
	res, err := Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	genuine, err := encodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	corpus := artefactCorruptions(f, genuine, res)
	for _, name := range slices.Sorted(maps.Keys(corpus)) {
		f.Add(corpus[name].data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := decodeResult(data, cfg)
		if err != nil {
			return
		}
		again, err := encodeResult(first)
		if err != nil {
			t.Fatalf("accepted artefact does not re-encode: %v", err)
		}
		second, err := decodeResult(again, cfg)
		if err != nil {
			t.Fatalf("re-encoded artefact rejected: %v", err)
		}
		requireSameResult(t, second, first)
	})
}

// TestSweepResumesOverTruncatedArtefact drives the same regression through
// the full sweep engine: one truncated cell in an otherwise warm store must
// cost exactly one re-simulation, not fail (or poison) the sweep.
func TestSweepResumesOverTruncatedArtefact(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := sweepTestConfig()
	opts := SweepOptions{Workers: 2, Reps: 1, Store: store}
	first, err := ParallelSweep(base, Urban, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate one stored cell the way a crash mid-rewrite would.
	cfg := base
	cfg.Environment = Urban
	cfg.D2DRangeM = 0
	cfg.NumGateways = GatewaySweep()[0]
	cfg.Scheme = routing.SchemeNoRouting
	cfg.Seed = RepSeed(base.Seed, 0)
	key, ok := cacheKey(cfg)
	if !ok {
		t.Fatal("cell not cacheable")
	}
	if err := store.Put(key, []byte(fmt.Sprintf(`{"schema":%d}`, storeSchemaVersion))); err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	second, err := ParallelSweepFunc(base, Urban, opts, func(u CellUpdate) {
		if !u.Cached {
			recomputed++
		}
	})
	if err != nil {
		t.Fatalf("sweep failed over a truncated artefact: %v", err)
	}
	if recomputed != 1 {
		t.Fatalf("truncated cell cost %d re-simulations, want exactly 1", recomputed)
	}
	if got, want := sweepTables(second), sweepTables(first); got != want {
		t.Fatalf("recomputed sweep tables differ:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunThroughStoreCorruptArtefact checks self-healing: a corrupt stored
// artefact is ignored, re-simulated, and overwritten.
func TestRunThroughStoreCorruptArtefact(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweepTestConfig()
	key, ok := cacheKey(cfg)
	if !ok {
		t.Fatal("config not cacheable")
	}
	if err := store.Put(key, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	res, cached, err := runThroughStore(store, cfg, nil)
	if err != nil || cached {
		t.Fatalf("corrupt artefact: cached=%v err=%v", cached, err)
	}
	// The overwrite repaired the entry: next call hits.
	res2, cached2, err := runThroughStore(store, cfg, nil)
	if err != nil || !cached2 {
		t.Fatalf("after repair: cached=%v err=%v", cached2, err)
	}
	if res2.String() != res.String() {
		t.Fatal("repaired artefact differs")
	}
}
