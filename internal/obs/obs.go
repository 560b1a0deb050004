// Package obs is the structured observability layer: a typed event
// bus recording where cycles go — queue residency, unit occupancy,
// Copy-Use windows — across every layer of the simulated stack.
//
// Design constraints (all load-bearing for the experiments):
//
//   - Typed, not printf: each emission is a fixed-size Event keyed on
//     virtual time, so exporters and tests consume a schema instead of
//     parsing trace lines.
//   - Zero allocation on the hot path: events land in a preallocated
//     ring buffer; labels are static interned strings; aggregate
//     updates (histograms, unit busy accounting) touch fixed arrays
//     and pre-registered tracks only.
//   - Off by default, one nil check per site when disabled: emission
//     sites call the nil-safe emitters At and On, which inline.
//   - One schema: the kinds table gives each kind its name, layer and
//     fixed timeline row, so an emission site states only what varies.
//   - Deterministic: recording is driven entirely by the simulation's
//     virtual clock and event order, and the exporters iterate rings
//     and registration-ordered slices (never maps), so two runs of the
//     same experiment produce byte-identical exports.
//
// The package sits below internal/sim (it imports only the standard
// library); sim.Env carries the recorder and the higher layers — core,
// hw, kernel — fetch it from their environment and emit.
package obs

import "math/bits"

// EventKind enumerates the typed events. The first seven are the
// schema's backbone; the rest refine individual layers.
type EventKind uint8

const (
	// EvTaskSubmit: a Copy Task entered a CSH queue.
	// A = task ID, B = task length in bytes.
	EvTaskSubmit EventKind = iota
	// EvTaskDispatch: the service dispatcher started executing a task
	// window (first dispatch only). A = task ID, B = queue residency
	// in cycles (admission → dispatch).
	EvTaskDispatch
	// EvSegmentDone: one segment-aligned piece landed in the
	// destination. A = task ID, B = piece bytes.
	EvSegmentDone
	// EvTaskComplete: a task fully finished (handler delegated).
	// A = task ID, B = latency in cycles (admission → completion).
	EvTaskComplete
	// EvQueueDepthSample: a CSH backlog sample at admission time.
	// A = client ID, B = pending task count.
	EvQueueDepthSample
	// EvUnitBusyInterval: a copy unit (AVX/ERMS/DMA) was busy for
	// [T, T+Dur). A = bytes moved.
	EvUnitBusyInterval
	// EvTrapReturn: one user→kernel→user syscall window [T, T+Dur).
	// A = TID.
	EvTrapReturn

	// EvProcStart / EvProcEnd: simulation process lifecycle (sim
	// layer).
	EvProcStart
	EvProcEnd
	// EvThreadRun: a kernel thread held a core for [T, T+Dur)
	// (scheduler run span; preemption ends the span). A = TID.
	EvThreadRun
	// EvDMASubmit: a descriptor was enqueued on the DMA channel.
	// A = bytes.
	EvDMASubmit
	// EvATCacheHit / EvATCacheMiss: one page translation through the
	// Address Transfer Cache.
	EvATCacheHit
	EvATCacheMiss

	// EvFaultInjected: the fault layer perturbed one operation.
	// A = payload bytes affected, B = fault bits (1 = fail,
	// 2 = stall, 4 = permanent).
	EvFaultInjected
	// EvTaskRetry: a task's failed window was rescheduled with
	// backoff. A = task ID, B = retry number (1-based).
	EvTaskRetry
	// EvTaskFailed: a task exhausted retries (or hit a permanent
	// fault) and completed with an error. A = task ID, B = retries.
	EvTaskFailed
	// EvEngineFallback: DMA-eligible work was forced onto the CPU
	// engines because the DMA channel is faulted/cooling down.
	// A = task ID, B = bytes diverted.
	EvEngineFallback
	// EvClientTeardown: a dead client's state was reclaimed by the
	// service. A = client ID, B = tasks reclaimed (queued + pending).
	EvClientTeardown

	// EvTaskShed: admission control or the dispatcher dropped a task
	// with a definite error instead of copying it. A = task ID,
	// B = reason (1 = queue overload, 2 = deadline passed,
	// 3 = brownout priority shed, 4 = retry budget exhausted).
	EvTaskShed
	// EvEngineHealth: a DMA engine's health state changed.
	// A = engine (node) index, B = new state (0 = healthy,
	// 1 = degraded, 2 = quarantined, 3 = dead).
	EvEngineHealth
	// EvBrownout: the service brownout controller toggled.
	// A = 1 entering / 0 exiting, B = service backlog bytes at the
	// toggle.
	EvBrownout

	numEventKinds
)

// kinds is the event schema: each kind's name, the layer that emits
// it and the timeline row At puts it on ("" where the emitter names
// the row with On: one per copy unit, core or DMA engine).
var kinds = [numEventKinds]struct {
	name  string
	layer Layer
	track string
}{
	EvTaskSubmit:       {"TaskSubmit", LayerCore, "core:tasks"},
	EvTaskDispatch:     {"TaskDispatch", LayerCore, "core:tasks"},
	EvSegmentDone:      {"SegmentDone", LayerCore, "core:segments"},
	EvTaskComplete:     {"TaskComplete", LayerCore, "core:tasks"},
	EvQueueDepthSample: {"QueueDepthSample", LayerCore, "core:backlog"},
	EvUnitBusyInterval: {"UnitBusyInterval", LayerHW, ""},
	EvTrapReturn:       {"TrapReturn", LayerKernel, ""},
	EvProcStart:        {"ProcStart", LayerSim, "sim:procs"},
	EvProcEnd:          {"ProcEnd", LayerSim, "sim:procs"},
	EvThreadRun:        {"ThreadRun", LayerKernel, ""},
	EvDMASubmit:        {"DMASubmit", LayerHW, ""},
	EvATCacheHit:       {"ATCacheHit", LayerCore, "core:atcache"},
	EvATCacheMiss:      {"ATCacheMiss", LayerCore, "core:atcache"},
	EvFaultInjected:    {"FaultInjected", LayerHW, ""},
	EvTaskRetry:        {"TaskRetry", LayerCore, "core:tasks"},
	EvTaskFailed:       {"TaskFailed", LayerCore, "core:tasks"},
	EvEngineFallback:   {"EngineFallback", LayerCore, "core:tasks"},
	EvClientTeardown:   {"ClientTeardown", LayerCore, "core:clients"},
	EvTaskShed:         {"TaskShed", LayerCore, "core:tasks"},
	EvEngineHealth:     {"EngineHealth", LayerCore, "core:health"},
	EvBrownout:         {"Brownout", LayerCore, "core:brownout"},
}

func (k EventKind) String() string {
	if int(k) < len(kinds) {
		return kinds[k].name
	}
	return "EventKind?"
}

// Layer returns the layer that emits kind k.
func (k EventKind) Layer() Layer { return kinds[k].layer }

// Layer tags which of the four timing-owning layers emitted an event.
type Layer uint8

const (
	LayerSim Layer = iota
	LayerCore
	LayerHW
	LayerKernel

	numLayers
)

var layerNames = [numLayers]string{"sim", "core", "hw", "kernel"}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "layer?"
}

// Event is one typed trace record. T and Dur are virtual time in CPU
// cycles; Track names the timeline row (a unit, a core, a queue);
// Name labels the event on that row. Track and Name must be static or
// interned strings — emission stores them by reference.
type Event struct {
	T     int64
	Dur   int64
	Kind  EventKind
	Track string
	Name  string
	A, B  int64
}

// span reports whether the event renders as a duration slice.
func (e *Event) span() bool {
	switch e.Kind {
	case EvUnitBusyInterval, EvThreadRun, EvTrapReturn:
		return true
	}
	return false
}

// counter reports whether the event renders as a counter sample.
func (e *Event) counter() bool { return e.Kind == EvQueueDepthSample }

// Histogram is a fixed-bucket latency histogram: bucket i counts
// values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Fixed
// buckets keep Observe allocation-free and exports deterministic;
// quantiles report the bucket's inclusive upper bound.
type Histogram struct {
	buckets [65]int64
	count   int64
	sum     int64
	max     int64
}

// Observe records one non-negative value.
//
//copier:noalloc
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns the inclusive upper bound of the bucket containing
// the q-quantile (0 < q <= 1), or 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			if i == 0 {
				return 0
			}
			return (int64(1) << i) - 1
		}
	}
	return h.max
}

// unitStat accumulates busy time for one track.
type unitStat struct {
	track     string
	busy      int64
	intervals int64
	bytes     int64
}

// Recorder is the event sink. A nil *Recorder is a valid, disabled
// recorder: At and On do nothing on it. Recorder is not safe for
// concurrent use — inside the discrete-event simulation
// exactly one process runs at a time, which is also what makes its
// output deterministic.
type Recorder struct {
	ring    []Event
	n       uint64 // total events ever emitted
	counts  [numEventKinds]int64
	byLayer [numLayers]int64

	// Aggregate histograms, fed by Emit.
	TaskLatency    Histogram // admission → completion (EvTaskComplete.B)
	QueueResidency Histogram // admission → first dispatch (EvTaskDispatch.B)
	TrapResidency  Histogram // syscall window length (EvTrapReturn.Dur)
	QueueDepth     Histogram // backlog samples (EvQueueDepthSample.B)

	units    []unitStat
	unitIdx  map[string]int
	first    int64
	last     int64
	sawEvent bool
}

// DefaultRingCap bounds recording to this many most-recent events
// unless NewRecorder is told otherwise (~18 MB of events).
const DefaultRingCap = 1 << 18

// NewRecorder returns an enabled recorder keeping the most recent
// ringCap events (0 selects DefaultRingCap).
func NewRecorder(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Recorder{
		ring:    make([]Event, ringCap),
		unitIdx: make(map[string]int),
	}
}

// At records an instant of kind k on the kind's own row. It does
// nothing on a nil recorder, and it is small enough to inline, so a
// disabled site costs one nil check.
//
//copier:noalloc
func (r *Recorder) At(k EventKind, t int64, name string, a, b int64) {
	if r != nil {
		r.Emit(Event{T: t, Kind: k, Track: kinds[k].track, Name: name, A: a, B: b})
	}
}

// On records an event of kind k on the row the caller names: a unit's
// busy span [t, t+dur), a DMA submit or fault on its engine, a thread
// run on its core, a syscall window. Nil-safe and inlined like At.
//
//copier:noalloc
func (r *Recorder) On(track string, k EventKind, t, dur int64, name string, a, b int64) {
	if r != nil {
		r.Emit(Event{T: t, Dur: dur, Kind: k, Track: track, Name: name, A: a, B: b})
	}
}

// Emit records one event. The newest events win when the ring wraps;
// aggregate counters and histograms always see every event. The
// annotation covers escape-analysis allocations only: the first
// interval on a fresh track grows r.units / r.unitIdx, which is
// runtime growth, amortized to zero in steady state.
//
//copier:noalloc
func (r *Recorder) Emit(e Event) {
	r.ring[r.n%uint64(len(r.ring))] = e
	r.n++
	r.counts[e.Kind]++
	r.byLayer[kinds[e.Kind].layer]++
	if !r.sawEvent || e.T < r.first {
		r.first = e.T
	}
	if end := e.T + e.Dur; end > r.last {
		r.last = end
	}
	r.sawEvent = true
	switch e.Kind {
	case EvTaskComplete:
		r.TaskLatency.Observe(e.B)
	case EvTaskDispatch:
		r.QueueResidency.Observe(e.B)
	case EvTrapReturn:
		r.TrapResidency.Observe(e.Dur)
	case EvQueueDepthSample:
		r.QueueDepth.Observe(e.B)
	case EvUnitBusyInterval, EvThreadRun:
		i, ok := r.unitIdx[e.Track]
		if !ok {
			i = len(r.units)
			r.unitIdx[e.Track] = i
			r.units = append(r.units, unitStat{track: e.Track})
		}
		u := &r.units[i]
		u.busy += e.Dur
		u.intervals++
		if e.Kind == EvUnitBusyInterval {
			u.bytes += e.A // A is bytes moved; for ThreadRun it is a TID
		}
	}
}

// Cap returns the ring capacity in events.
func (r *Recorder) Cap() int { return len(r.ring) }

// Total returns the number of events ever emitted.
func (r *Recorder) Total() uint64 { return r.n }

// Dropped returns how many events the ring discarded (oldest-first).
func (r *Recorder) Dropped() uint64 {
	if r.n <= uint64(len(r.ring)) {
		return 0
	}
	return r.n - uint64(len(r.ring))
}

// CountOf returns how many events of kind k were emitted.
func (r *Recorder) CountOf(k EventKind) int64 { return r.counts[k] }

// LayerCount returns how many events layer l emitted.
func (r *Recorder) LayerCount(l Layer) int64 { return r.byLayer[l] }

// Window returns the [first, last] virtual-time span covered by
// emitted events.
func (r *Recorder) Window() (first, last int64) { return r.first, r.last }

// Events calls fn for each retained event, oldest first.
func (r *Recorder) Events(fn func(e *Event)) {
	if r.n == 0 {
		return
	}
	capU := uint64(len(r.ring))
	start := uint64(0)
	count := r.n
	if r.n > capU {
		start = r.n % capU
		count = capU
	}
	for i := uint64(0); i < count; i++ {
		fn(&r.ring[(start+i)%capU])
	}
}
