package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1<<20 {
		t.Fatalf("max = %d", h.Max())
	}
	// Quantiles report the bucket's inclusive upper bound: the median
	// of {0,1,2,3,100,1000,1M} lands in the [2,3] bucket.
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(1.0); q < 1<<20 {
		t.Fatalf("p100 = %d, want >= 1<<20", q)
	}
	h.Observe(-5) // clamps to 0
	if h.Max() != 1<<20 || h.Count() != 8 {
		t.Fatal("negative observation must clamp, not corrupt")
	}
}

func TestRingWrapKeepsNewestAndAggregatesAll(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{T: int64(i), Kind: EvTaskComplete, Track: "core:tasks", B: int64(i)})
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d", r.Total(), r.Dropped())
	}
	var got []int64
	r.Events(func(e *Event) { got = append(got, e.T) })
	want := []int64{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("retained %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained %v, want %v (oldest first)", got, want)
		}
	}
	// Aggregates saw every event, including the dropped ones.
	if r.TaskLatency.Count() != 10 {
		t.Fatalf("latency count = %d", r.TaskLatency.Count())
	}
	if r.CountOf(EvTaskComplete) != 10 || r.LayerCount(LayerCore) != 10 {
		t.Fatal("counters must not be ring-bounded")
	}
	if first, last := r.Window(); first != 0 || last != 9 {
		t.Fatalf("window = [%d,%d]", first, last)
	}
}

func TestUnitOccupancyAccounting(t *testing.T) {
	r := NewRecorder(16)
	r.Emit(Event{T: 0, Dur: 100, Kind: EvUnitBusyInterval, Track: "hw:AVX", A: 4096})
	r.Emit(Event{T: 200, Dur: 50, Kind: EvUnitBusyInterval, Track: "hw:AVX", A: 1024})
	r.Emit(Event{T: 0, Dur: 300, Kind: EvThreadRun, Track: "kernel:core0", A: 7})
	if len(r.units) != 2 {
		t.Fatalf("units = %d", len(r.units))
	}
	avx := r.units[0]
	if avx.track != "hw:AVX" || avx.busy != 150 || avx.intervals != 2 || avx.bytes != 5120 {
		t.Fatalf("avx stat = %+v", avx)
	}
	// ThreadRun's A is a TID, not bytes: it must not pollute the bytes
	// column.
	core0 := r.units[1]
	if core0.busy != 300 || core0.bytes != 0 {
		t.Fatalf("core0 stat = %+v", core0)
	}
}

// fill emits one event of every shape the exporters distinguish.
func fill(r *Recorder) {
	r.Emit(Event{T: 5, Kind: EvTaskSubmit, Track: "core:tasks", Name: "cli", A: 1, B: 4096})
	r.Emit(Event{T: 9, Kind: EvTaskDispatch, Track: "core:tasks", Name: "cli", A: 1, B: 4})
	r.Emit(Event{T: 12, Kind: EvQueueDepthSample, Track: "core:backlog", Name: "cli", A: 0, B: 3})
	r.Emit(Event{T: 15, Dur: 80, Kind: EvUnitBusyInterval, Track: "hw:DMA", Name: "xfer", A: 4096})
	r.Emit(Event{T: 40, Dur: 30, Kind: EvTrapReturn, Track: "kernel:syscalls", Name: "recv\"x\"", A: 2})
	r.Emit(Event{T: 99, Kind: EvTaskComplete, Track: "core:tasks", Name: "cli", A: 1, B: 94})
}

func TestPerfettoExportValidAndDeterministic(t *testing.T) {
	r := NewRecorder(64)
	fill(r)
	var a, b bytes.Buffer
	if err := r.WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of one recorder differ")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", a.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["X"] != 2 || phases["C"] != 1 || phases["i"] != 3 {
		t.Fatalf("phase mix = %v", phases)
	}
	// Track metadata: one thread_name per distinct track + process_name.
	if phases["M"] != 4+1 {
		t.Fatalf("metadata events = %d", phases["M"])
	}
	if !strings.Contains(a.String(), `\"x\"`) {
		t.Fatal("JSON string escaping missing")
	}
}

func TestSummaryDeterministicAndComplete(t *testing.T) {
	r := NewRecorder(64)
	fill(r)
	var a, b bytes.Buffer
	if err := r.WriteSummary(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two summaries of one recorder differ")
	}
	for _, want := range []string{"TaskComplete", "task latency", "trap residency", "hw:DMA", "by layer"} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, a.String())
		}
	}
}

func TestEventsEmptyRecorder(t *testing.T) {
	r := NewRecorder(8)
	r.Events(func(e *Event) { t.Fatal("no events expected") })
	var buf bytes.Buffer
	if err := r.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("empty export must still be valid JSON")
	}
}

// TestKindSchema pins the shape of the kinds table: every kind has a
// distinct name and a valid layer, exactly the 16 core and sim instant
// kinds have a fixed row, that row is named after the kind's layer,
// and the kinds whose emitter names the row are hw's and kernel's.
func TestKindSchema(t *testing.T) {
	fixed := map[EventKind]string{
		EvTaskSubmit: "core:tasks", EvTaskDispatch: "core:tasks", EvTaskComplete: "core:tasks",
		EvTaskRetry: "core:tasks", EvTaskFailed: "core:tasks", EvEngineFallback: "core:tasks",
		EvTaskShed: "core:tasks", EvSegmentDone: "core:segments", EvQueueDepthSample: "core:backlog",
		EvATCacheHit: "core:atcache", EvATCacheMiss: "core:atcache", EvClientTeardown: "core:clients",
		EvEngineHealth: "core:health", EvBrownout: "core:brownout",
		EvProcStart: "sim:procs", EvProcEnd: "sim:procs",
	}
	if len(fixed) != 16 {
		t.Fatalf("%d fixed-row kinds listed, want 16", len(fixed))
	}
	names := map[string]bool{}
	for k := EventKind(0); k < numEventKinds; k++ {
		name, l, track := k.String(), k.Layer(), kinds[k].track
		if name == "" || name == "EventKind?" || names[name] {
			t.Errorf("kind %d: name %q missing or reused", k, name)
		}
		names[name] = true
		if l >= numLayers {
			t.Errorf("%s: layer %d out of range", name, l)
		}
		if track != fixed[k] {
			t.Errorf("%s: fixed row %q, want %q", name, track, fixed[k])
		}
		if track != "" && !strings.HasPrefix(track, l.String()+":") {
			t.Errorf("%s: row %q outside its layer %s", name, track, l)
		}
		if track == "" && l != LayerHW && l != LayerKernel {
			t.Errorf("%s: caller-named row on layer %s", name, l)
		}
	}
	if s := numEventKinds.String(); s != "EventKind?" {
		t.Errorf("out-of-range kind prints %q", s)
	}
}

// TestAtAndOnFillTheRecord checks what the emitters store: At puts an
// instant on its kind's row, On on the caller's row with its span, and
// both count against the kind's layer.
func TestAtAndOnFillTheRecord(t *testing.T) {
	r := NewRecorder(8)
	r.At(EvBrownout, 7, "enter", 1, 99)
	r.On("hw:DMA3", EvUnitBusyInterval, 10, 5, "xfer", 4096, 0)
	var got []Event
	r.Events(func(e *Event) { got = append(got, *e) })
	want := []Event{
		{T: 7, Kind: EvBrownout, Track: "core:brownout", Name: "enter", A: 1, B: 99},
		{T: 10, Dur: 5, Kind: EvUnitBusyInterval, Track: "hw:DMA3", Name: "xfer", A: 4096},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("recorded %+v, want %+v", got, want)
	}
	if r.LayerCount(LayerCore) != 1 || r.LayerCount(LayerHW) != 1 {
		t.Fatalf("layer counts core=%d hw=%d", r.LayerCount(LayerCore), r.LayerCount(LayerHW))
	}
}

// TestEmittersAllocFree pins the emitters' cost contract: on a nil
// recorder At and On do nothing, and on a warm recorder (its unit rows
// registered) they allocate nothing.
func TestEmittersAllocFree(t *testing.T) {
	emit := func(r *Recorder) {
		r.At(EvTaskSubmit, 1, "cli", 1, 4096)
		r.On("hw:DMA", EvUnitBusyInterval, 2, 80, "xfer", 4096, 0)
	}
	var off *Recorder
	if n := testing.AllocsPerRun(100, func() { emit(off) }); n != 0 {
		t.Errorf("nil recorder: %v allocs per emission pair", n)
	}
	r := NewRecorder(64)
	emit(r)
	if n := testing.AllocsPerRun(100, func() { emit(r) }); n != 0 {
		t.Errorf("warm recorder: %v allocs per emission pair", n)
	}
	// One warming pair, AllocsPerRun's own warm-up, then its 100 runs.
	if want := uint64(2 * (1 + 1 + 100)); r.Total() != want {
		t.Errorf("warm recorder holds %d events, want %d", r.Total(), want)
	}
}

// BenchmarkEmit quantifies the enabled hot path. The disabled path is
// the nil check At and On inline to at each site, which
// TestEmittersAllocFree pins allocation-free.
func BenchmarkEmit(b *testing.B) {
	r := NewRecorder(1 << 12)
	e := Event{T: 1, Dur: 2, Kind: EvUnitBusyInterval, Track: "hw:AVX", A: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.T = int64(i)
		r.Emit(e)
	}
}
