package experiment

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"mlorass/internal/disruption"
	"mlorass/internal/gwplan"
	"mlorass/internal/lorawan"
	"mlorass/internal/radio"
	"mlorass/internal/routing"
	"mlorass/internal/runstore"
)

// storeSchemaVersion versions the (simulator semantics, artefact encoding)
// pair. Bump it whenever either changes — any edit that can alter a Result
// for the same (config, seed), or the resultArtifact layout — and every
// previously stored artefact silently becomes a miss. This is the store's
// entire cache-invalidation model: keys are content-addressed over
// (schema version, semantic config, seed), never expired by time.
//
// Version 2: the MAC subsystem (Config.MAC in the key, downlink/ADR
// measurements and the SF distribution in the artefact).
//
// Version 3: the sharded execution engine (Config.Shards in the key —
// sharded results are deliberately distinct from serial ones, so the
// engine choice is semantic).
//
// Version 4: devices overhear from their first instant in service, not from
// the next spatial-index rebuild after it.
//
// Version 5: the per-delivery columns (raw delays, origins) are packed bytes,
// not JSON number arrays.
//
// Version 6: the artefact is the Result's own JSON form, and each recorder
// tally (generated, queue drops, handovers, the MAC counts) is stored once,
// in the telemetry counters; the handover counters are new there.
//
// Version 7: the origin column is gone; a delivery's origin is its message
// ID's high word less one.
const storeSchemaVersion = 7

// storeKey is the canonical, deterministic description of everything that
// determines a Run's Result. Field order is fixed by the struct; every
// semantic Config field appears, and only non-semantic ones (trace sink,
// progress plumbing, the tile count, which leaves results bit-identical)
// are omitted.
type storeKey struct {
	Schema          int                   `json:"schema"`
	Seed            uint64                `json:"seed"`
	Scheme          routing.Scheme        `json:"scheme"`
	Class           lorawan.DeviceClass   `json:"class"`
	Environment     Environment           `json:"environment"`
	D2DRangeM       float64               `json:"d2d_range_m"`
	GatewayRangeM   float64               `json:"gateway_range_m"`
	NumGateways     int                   `json:"num_gateways"`
	GatewayStrategy gwplan.Strategy       `json:"gateway_strategy"`
	Mobility        MobilityConfig        `json:"mobility"`
	Disruption      disruption.Config     `json:"disruption"`
	NumRoutes       int                   `json:"num_routes"`
	PeakHeadway     time.Duration         `json:"peak_headway"`
	AreaSideM       float64               `json:"area_side_m"`
	Duration        time.Duration         `json:"duration"`
	MsgInterval     time.Duration         `json:"msg_interval"`
	QueueMax        int                   `json:"queue_max"`
	Alpha           float64               `json:"alpha"`
	SF              radio.SpreadingFactor `json:"sf"`
	TxPowerDBm      float64               `json:"tx_power_dbm"`
	DutyCycle       float64               `json:"duty_cycle"`
	ShadowSigmaDB   float64               `json:"shadow_sigma_db"`
	CaptureDB       float64               `json:"capture_db"`
	ThroughputBin   time.Duration         `json:"throughput_bin"`
	MAC             MACConfig             `json:"mac"`
}

// cacheKey returns the run store key for cfg. ok is false when the config
// is not cacheable: an explicitly supplied Dataset has no canonical byte
// form here, so those runs always simulate.
func cacheKey(cfg Config) (key string, ok bool) {
	if cfg.Dataset != nil {
		return "", false
	}
	cfg.Normalize()
	k := storeKey{
		Schema:          storeSchemaVersion,
		Seed:            cfg.Seed,
		Scheme:          cfg.Scheme,
		Class:           cfg.Class,
		Environment:     cfg.Environment,
		D2DRangeM:       cfg.D2DRangeM,
		GatewayRangeM:   cfg.GatewayRangeM,
		NumGateways:     cfg.NumGateways,
		GatewayStrategy: cfg.GatewayStrategy,
		Mobility:        cfg.Mobility,
		Disruption:      cfg.Disruption,
		NumRoutes:       cfg.NumRoutes,
		PeakHeadway:     cfg.PeakHeadway,
		AreaSideM:       cfg.AreaSideM,
		Duration:        cfg.Duration,
		MsgInterval:     cfg.MsgInterval,
		QueueMax:        cfg.QueueMax,
		Alpha:           cfg.Alpha,
		SF:              cfg.SF,
		TxPowerDBm:      cfg.TxPowerDBm,
		DutyCycle:       cfg.DutyCycle,
		ShadowSigmaDB:   cfg.ShadowSigmaDB,
		CaptureDB:       cfg.CaptureDB,
		ThroughputBin:   cfg.ThroughputBin,
		MAC:             cfg.MAC,
	}
	b, err := json.Marshal(k)
	if err != nil {
		return "", false
	}
	return runstore.Key(b), true
}

// resultArtifact is a Result's wire form: the Result itself, whose JSON tags
// leave out the Config (the loader restores it from the request, which by key
// construction is semantically identical) and store each recorder tally once,
// in the telemetry snapshot, plus the raw per-delivery samples the
// matched-coverage table needs. JSON float64 encoding round-trips bit for
// bit, so a decoded artefact renders every aggregate table byte-identically
// to the original run.
//
// The per-delivery delay column is most of a run's bytes, so it is packed
// rather than written as a JSON number array (encoding/json carries []byte
// as base64, keeping the artefact one JSON document): RawDelays holds each
// delay's IEEE-754 bits little-endian, 8 bytes per delivery.
type resultArtifact struct {
	Schema int `json:"schema"`
	Result
	RawDelays []byte `json:"raw_delays"`
}

// encodeResult serialises a Result for the run store.
func encodeResult(r *Result) ([]byte, error) {
	delays := make([]byte, 0, 8*len(r.rawDelays))
	for _, d := range r.rawDelays {
		delays = binary.LittleEndian.AppendUint64(delays, math.Float64bits(d))
	}
	return json.Marshal(resultArtifact{
		Schema:    storeSchemaVersion,
		Result:    *r,
		RawDelays: delays,
	})
}

// decodeResult restores a stored artefact as the Result that Run(cfg) would
// have produced, rejecting artefacts from another schema version and
// artefacts that parse but fail the invariants every real run satisfies:
// a delay column sized to the delivery count, and the accounting
// identities of checkAccounting. The integrity check matters for crash
// recovery: a truncated or hand-damaged file that still happens to be valid
// JSON (`{"schema":2}`, say) must read as corruption — to be recomputed and
// overwritten — not as a cached cell of zeros that silently poisons a sweep.
func decodeResult(data []byte, cfg Config) (*Result, error) {
	// The packed column is taken as a raw JSON string and base64-decoded by
	// decodeResultColumn: encoding/json would first unquote it, a pass over
	// most of the artefact's bytes that base64 text never needs.
	var raw struct {
		resultArtifact
		RawDelays json.RawMessage `json:"raw_delays"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("experiment: stored artefact: %w", err)
	}
	a := &raw.resultArtifact
	if a.Schema != storeSchemaVersion {
		return nil, fmt.Errorf("experiment: stored artefact schema %d, want %d", a.Schema, storeSchemaVersion)
	}
	var err error
	if a.RawDelays, err = decodeResultColumn(raw.RawDelays); err != nil {
		return nil, fmt.Errorf("experiment: stored artefact raw_delays: %w", err)
	}
	if a.Throughput == nil {
		return nil, fmt.Errorf("experiment: stored artefact has no throughput series (truncated?)")
	}
	// Divide rather than multiply: 8*Delivered overflows for a forged count,
	// and Delivered sizes the allocation below.
	if a.Delivered < 0 || len(a.RawDelays)%8 != 0 || len(a.RawDelays)/8 != a.Delivered {
		return nil, fmt.Errorf("experiment: stored artefact delay column of %d bytes inconsistent with delivered %d (truncated?)",
			len(a.RawDelays), a.Delivered)
	}
	cfg.Normalize()
	delays := make([]float64, a.Delivered)
	for i := range delays {
		delays[i] = math.Float64frombits(binary.LittleEndian.Uint64(a.RawDelays[8*i:]))
	}
	// A copy, so the Result keeps none of the artefact's column bytes alive.
	r := a.Result
	r.Config = cfg
	r.rawDelays = delays
	r.fillTallies()
	if err := r.checkAccounting(nil); err != nil {
		return nil, fmt.Errorf("experiment: stored artefact: %w", err)
	}
	return &r, nil
}

// decodeResultColumn decodes the packed column from its JSON form: null, or
// a base64 string. A string holding JSON escapes is rejected; encoding/json
// never writes one into base64 text.
func decodeResultColumn(raw json.RawMessage) ([]byte, error) {
	if raw == nil || string(raw) == "null" {
		return nil, nil
	}
	if len(raw) < 2 || raw[0] != '"' || raw[len(raw)-1] != '"' {
		return nil, fmt.Errorf("not a base64 string")
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(raw)-2))
	n, err := base64.StdEncoding.Decode(b, raw[1:len(raw)-1])
	if err != nil {
		return nil, err
	}
	return b[:n], nil
}

// runThroughStore executes one sweep cell through the artefact cache: a
// stored (config, seed) cell loads instead of simulating; a fresh cell
// simulates and persists. A nil store, an uncacheable config, or a corrupt
// stored artefact falls back to a plain Run (corruption is repaired by
// overwriting); a failing Put fails the cell, because a sweep that silently
// stops persisting would defeat resumability. A simulated cell takes its
// city from cities (nil generates it).
func runThroughStore(store *runstore.Store, cfg Config, cities *citySet) (res *Result, cached bool, err error) {
	if store == nil {
		res, err := runIn(cfg, cities)
		return res, false, err
	}
	key, cacheable := cacheKey(cfg)
	if cacheable {
		if data, ok, err := store.Get(key); err == nil && ok {
			if res, derr := decodeResult(data, cfg); derr == nil {
				return res, true, nil
			}
			// Corrupt or stale-schema artefact: fall through and
			// overwrite it with a fresh run.
		}
	}
	res, err = runIn(cfg, cities)
	if err != nil || !cacheable {
		return res, false, err
	}
	data, err := encodeResult(res)
	if err != nil {
		return nil, false, fmt.Errorf("experiment: encode artefact: %w", err)
	}
	if err := store.Put(key, data); err != nil {
		return nil, false, err
	}
	return res, false, nil
}
