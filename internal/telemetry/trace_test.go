package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	events := []Event{
		{T: 90 * time.Second, Kind: KindGenerate, Run: "urban/ROBC/gw=15/seed=1", Msg: 7, Dev: 0, Peer: -1, Gw: -1},
		{T: 95 * time.Second, Kind: KindRelay, Msg: 7, Dev: 0, Peer: 3, Gw: -1, Hops: 1},
		{T: 180 * time.Second, Kind: KindUplink, Msg: 7, Dev: 3, Peer: -1, Gw: 2, Hops: 2},
		{T: 180 * time.Second, Kind: KindDeliver, Msg: 7, Dev: -1, Peer: -1, Gw: 2, Hops: 2, DelayS: 90},
	}
	for _, e := range events {
		if err := sink.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(events) {
		t.Fatalf("got %d lines, want %d", len(lines), len(events))
	}
	// One JSON object per line; field check on the generate line.
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if first["kind"] != "gen" || first["t"] != 90.0 || first["msg"] != 7.0 || first["dev"] != 0.0 {
		t.Fatalf("generate line fields wrong: %v", first)
	}
	if first["run"] != "urban/ROBC/gw=15/seed=1" {
		t.Fatalf("run label missing: %v", first)
	}
	var deliver map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &deliver); err != nil {
		t.Fatal(err)
	}
	if deliver["delay_s"] != 90.0 || deliver["gw"] != 2.0 {
		t.Fatalf("deliver line fields wrong: %v", deliver)
	}
}

func TestCSVSinkHeaderAndRows(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	if err := sink.Emit(Event{T: time.Second, Kind: KindDrop, Msg: 9, Dev: 4, Peer: -1, Gw: -1}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row", len(lines))
	}
	if lines[0] != "t,kind,run,msg,dev,peer,gw,hops,delay_s" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `1,drop,"",9,4,-1,-1,0,0` {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestSinkConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = sink.Emit(Event{Kind: KindGenerate, Msg: uint64(w*1000 + i), Dev: w, Peer: -1, Gw: -1})
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for i, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("line %d interleaved/corrupt: %q", i, ln)
		}
	}
}

func TestTracerNilIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(1) {
		t.Fatal("nil tracer sampled a message")
	}
	tr.Emit(Event{}) // must not panic
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if NewTracer(nil, 1) != nil {
		t.Fatal("NewTracer(nil sink) should be nil")
	}
}

func TestTracerSamplingDeterministicAndUnbiased(t *testing.T) {
	sink := &MemSink{}
	tr := NewTracer(sink, 10)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if tr.Sampled(uint64(i)) {
			hits++
		}
	}
	// Deterministic: same IDs, same answer.
	tr2 := NewTracer(&MemSink{}, 10)
	for i := 0; i < 1000; i++ {
		if tr.Sampled(uint64(i)) != tr2.Sampled(uint64(i)) {
			t.Fatal("sampling not deterministic across tracers")
		}
	}
	// Unbiased: ~1 in 10 of sequential IDs.
	got := float64(hits) / float64(n)
	if got < 0.08 || got > 0.12 {
		t.Fatalf("sample rate %.4f, want ~0.1", got)
	}
	// every=1 traces everything.
	all := NewTracer(sink, 1)
	for i := 0; i < 100; i++ {
		if !all.Sampled(uint64(i)) {
			t.Fatal("every=1 skipped a message")
		}
	}
}

func TestMemSinkCapture(t *testing.T) {
	sink := &MemSink{}
	tr := NewTracer(sink, 1)
	tr.Emit(Event{T: 3 * time.Second, Kind: KindUplink, Msg: 1, Dev: 2, Peer: -1, Gw: 0})
	evs := sink.Events()
	if len(evs) != 1 || evs[0].Kind != KindUplink || evs[0].TS != 3 {
		t.Fatalf("captured %v", evs)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRecorder()
	a.AddGenerated()
	a.AddServerFresh(2)
	a.ObserveDelay(10)
	b := NewRecorder()
	b.AddGenerated()
	b.AddServerDuplicate()
	b.ObserveDelay(30)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters.Generated != 2 || s.Counters.ServerFresh != 2 || s.Counters.ServerDuplicates != 1 {
		t.Fatalf("counters merge wrong: %+v", s.Counters)
	}
	if s.Delay.N() != 2 || s.Delay.Sum() != 40 {
		t.Fatalf("delay merge wrong: %v", s.Delay.String())
	}
}

// TestRecorderAllocationFree locks the per-worker hot-path contract: one
// counter increment or histogram observation allocates nothing.
func TestRecorderAllocationFree(t *testing.T) {
	r := NewRecorder()
	allocs := testing.AllocsPerRun(1000, func() {
		r.AddGenerated()
		r.AddFrame()
		r.ObserveDelay(300)
		r.ObserveAirtime(0.06)
	})
	if allocs != 0 {
		t.Fatalf("recorder hot path allocates %v per op, want 0", allocs)
	}
}

func BenchmarkRecorderHotPath(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.AddFrame()
		r.ObserveAirtime(0.0616)
	}
}

func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Sampled(uint64(i)) {
			tr.Emit(Event{})
		}
	}
}
