package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads runtime/pprof CPU profiles (gzip-compressed profile.proto)
// with the standard library alone and attributes every sample to one layer
// of the simulator. Only the fields attribution needs are decoded: sample
// types, samples, locations with their (possibly inlined) lines, functions
// and the string table.

// cpuProfile is the decoded subset of a profile.
type cpuProfile struct {
	// stacks holds each sample's function names, leaf first, with inlined
	// frames expanded innermost first.
	stacks [][]string
	// nanos holds each sample's CPU time in nanoseconds.
	nanos []int64
}

// protobuf field numbers of profile.proto.
const (
	pbProfileSampleType  = 1
	pbProfileSample      = 2
	pbProfileLocation    = 4
	pbProfileFunction    = 5
	pbProfileStringTable = 6

	pbValueTypeType = 1

	pbSampleLocationID = 1
	pbSampleValue      = 2

	pbLocationID   = 1
	pbLocationLine = 4

	pbLineFunctionID = 1

	pbFunctionID   = 1
	pbFunctionName = 2
)

var errTruncated = errors.New("pprof: truncated protobuf")

// pbField is one decoded protobuf field: a varint value (wire type 0) or a
// length-delimited payload (wire type 2). Fixed-width fields are skipped.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbFields decodes the top level of one protobuf message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = pbVarint(b)
			if n == 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarint decodes one base-128 varint, returning its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts appends a repeated integer field's values, accepting both the
// packed and the one-value-per-field encodings (runtime/pprof uses both).
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	var (
		strs       []string
		typeIdx    []uint64              // sample_type[i].type string indexes
		funcName   = map[uint64]uint64{} // function id -> name string index
		locFuncs   = map[uint64][]uint64{}
		rawSamples [][]pbField
	)
	for _, f := range top {
		switch f.num {
		case pbProfileStringTable:
			strs = append(strs, string(f.data))
		case pbProfileSampleType:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var t uint64
			for _, g := range fs {
				if g.num == pbValueTypeType {
					t = g.value
				}
			}
			typeIdx = append(typeIdx, t)
		case pbProfileFunction:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case pbFunctionID:
					id = g.value
				case pbFunctionName:
					name = g.value
				}
			}
			funcName[id] = name
		case pbProfileLocation:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case pbLocationID:
					id = g.value
				case pbLocationLine:
					ls, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == pbLineFunctionID {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case pbProfileSample:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			rawSamples = append(rawSamples, fs)
		}
	}

	// The CPU-time value column is the sample type named "cpu"; the other
	// column counts samples.
	cpuCol := len(typeIdx) - 1
	for i, t := range typeIdx {
		if int(t) < len(strs) && strs[t] == "cpu" {
			cpuCol = i
		}
	}
	if cpuCol < 0 {
		return nil, errors.New("pprof: profile has no sample types")
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, fs := range rawSamples {
		var locs, vals []uint64
		for _, g := range fs {
			switch g.num {
			case pbSampleLocationID:
				if locs, err = pbInts(locs, g); err != nil {
					return nil, err
				}
			case pbSampleValue:
				if vals, err = pbInts(vals, g); err != nil {
					return nil, err
				}
			}
		}
		if cpuCol >= len(vals) {
			return nil, fmt.Errorf("pprof: sample has %d values, want column %d", len(vals), cpuCol)
		}
		var stack []string
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, int64(vals[cpuCol]))
	}
	return p, nil
}

// Layers the CPU profile is attributed to, in report order.
var cpuLayers = []string{
	"eventsim", "experiment.engine", "experiment.grid", "experiment.codec",
	"mobility", "tfl", "gwplan", "radio", "netserver", "routing", "lorawan",
	"telemetry", "runstore", "sweepfarm", "wire", "runtime.gc", "runtime.other",
}

// packageLayer maps each mlorass package to its layer. Packages that are
// never on a benchmarked path at all (cmd/*, the analyzers) fall to
// experiment.engine, as do the root API and the disruption planner, which
// the engine drives.
var packageLayer = map[string]string{
	"mlorass/internal/eventsim":              "eventsim",
	"mlorass/internal/experiment":            "experiment.engine",
	"mlorass/internal/mobility":              "mobility",
	"mlorass/internal/geo":                   "mobility",
	"mlorass/internal/tfl":                   "tfl",
	"mlorass/internal/gwplan":                "gwplan",
	"mlorass/internal/radio":                 "radio",
	"mlorass/internal/netserver":             "netserver",
	"mlorass/internal/mac":                   "netserver",
	"mlorass/internal/core":                  "routing",
	"mlorass/internal/routing":               "routing",
	"mlorass/internal/lorawan":               "lorawan",
	"mlorass/internal/telemetry":             "telemetry",
	"mlorass/internal/obs":                   "telemetry",
	"mlorass/internal/runstore":              "runstore",
	"mlorass/internal/sweepfarm":             "sweepfarm",
	"mlorass/internal/sweepfarm/faultinject": "sweepfarm",
	"mlorass/internal/sweepfarm/wire":        "wire",
}

// passThrough packages hand their samples to the caller: they are leaf
// utilities every layer uses, so their cost belongs to whoever asked.
var passThrough = map[string]bool{
	"mlorass/internal/rng":   true,
	"mlorass/internal/stats": true,
}

// funcPackage returns the import path of a symbol name such as
// "mlorass/internal/experiment.(*sim).overhear".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold dots
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// experimentLayer splits the experiment package into the engine, the
// spatial grid (devIndex) and the artefact codec.
func experimentLayer(fn string) string {
	sym := fn[len("mlorass/internal/experiment."):]
	switch {
	case strings.Contains(sym, "devIndex"):
		return "experiment.grid"
	case strings.HasPrefix(sym, "encodeResult"), strings.HasPrefix(sym, "decodeResult"),
		strings.HasPrefix(sym, "cacheKey"):
		return "experiment.codec"
	}
	return "experiment.engine"
}

// gcRoots are the runtime's background collector goroutines.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// attributeStack returns the layer of one sample: the first mlorass frame
// walking up from the leaf (skipping pass-through utilities), or a frame of
// this harness, which counts as instrumentation. Stacks with neither belong
// to the runtime: the collector's workers, or everything else (scheduler,
// netpoller, process start).
func attributeStack(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "telemetry"
		}
		if !strings.HasPrefix(fn, "mlorass/") {
			continue
		}
		pkg := funcPackage(fn)
		if passThrough[pkg] {
			continue
		}
		if pkg == "mlorass/internal/experiment" {
			return experimentLayer(fn)
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		return "experiment.engine"
	}
	for _, fn := range stack {
		if gcRoots[fn] {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// attribute sums the profile's CPU seconds per layer. Every sample lands in
// exactly one layer, so the values sum to the profile's total.
func (p *cpuProfile) attribute() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for i, st := range p.stacks {
		out[attributeStack(st)] += float64(p.nanos[i]) / 1e9
	}
	return out
}

// totalSeconds returns the profile's total CPU time.
func (p *cpuProfile) totalSeconds() float64 {
	var ns int64
	for _, n := range p.nanos {
		ns += n
	}
	return float64(ns) / 1e9
}
