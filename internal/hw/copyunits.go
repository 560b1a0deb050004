// Package hw models the machine's copy hardware: the byte movement
// every copy engine shares (CopyScatter, CopyRange) and an on-chip DMA
// channel in the style of Intel I/OAT, which charges its background
// transfer time from the calibrated cost model in internal/cycles. It
// also provides the set-associative cache model used for the §6.3.5
// microarchitectural study.
package hw

import (
	"errors"
	"fmt"
	"strconv"

	"copier/internal/cycles"
	"copier/internal/fault"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// ErrEngine is the transient copy-engine failure reported by a DMA
// descriptor the fault layer chose to fail. Callers treat it as
// retryable.
var ErrEngine = errors.New("hw: transient copy-engine failure")

// ErrEngineDead is the permanent engine failure: the channel died
// (injected Outcome.Perm or an explicit Kill) and will never move
// another byte. Every queued and future descriptor completes with this
// error; callers must re-steer the work to a sibling engine or the CPU
// path rather than retry on this channel.
var ErrEngineDead = errors.New("hw: copy engine permanently dead")

// FrameRange addresses a byte range in physical memory starting inside
// frame Frame at offset Off and extending Len bytes across physically
// contiguous frames.
type FrameRange struct {
	Frame mem.Frame
	Off   units.Bytes
	Len   units.Bytes
}

// CopyScatter moves n bytes between possibly discontiguous physical
// ranges, page by page. It is the data-movement primitive all engines
// share; it performs no time accounting.
func CopyScatter(pm *mem.PhysMem, dst, src []FrameRange) units.Bytes {
	di, si := 0, 0
	var dOff, sOff, total units.Bytes
	for di < len(dst) && si < len(src) {
		d, s := dst[di], src[si]
		dRem := d.Len - dOff
		sRem := s.Len - sOff
		n := dRem
		if sRem < n {
			n = sRem
		}
		for n > 0 {
			// Copy within single frames at a time.
			dFrame := d.Frame + mem.Frame((d.Off+dOff)/mem.PageSize)
			dIn := (d.Off + dOff) % mem.PageSize
			sFrame := s.Frame + mem.Frame((s.Off+sOff)/mem.PageSize)
			sIn := (s.Off + sOff) % mem.PageSize
			chunk := n
			if c := mem.PageSize - dIn; c < chunk {
				chunk = c
			}
			if c := mem.PageSize - sIn; c < chunk {
				chunk = c
			}
			copy(pm.FrameBytes(dFrame)[dIn:dIn+chunk], pm.FrameBytes(sFrame)[sIn:sIn+chunk])
			dOff += chunk
			sOff += chunk
			n -= chunk
			total += chunk
		}
		if dOff == d.Len {
			di++
			dOff = 0
		}
		if sOff == s.Len {
			si++
			sOff = 0
		}
	}
	return total
}

// CopyRange moves bytes between two physically contiguous ranges —
// the single-run fast path of CopyScatter. The one-element lists live
// on the stack (CopyScatter does not retain its arguments), so the
// call is allocation-free.
//
//copier:noalloc
func CopyRange(pm *mem.PhysMem, dst, src FrameRange) units.Bytes {
	d := [1]FrameRange{dst}
	s := [1]FrameRange{src}
	return CopyScatter(pm, d[:], s[:])
}

// TotalLen sums the lengths of a range list.
func TotalLen(rs []FrameRange) units.Bytes {
	var n units.Bytes
	for _, r := range rs {
		n += r.Len
	}
	return n
}

// DMARequest tracks one in-flight DMA descriptor.
type DMARequest struct {
	dst, src FrameRange
	// CompleteAt is when the engine finishes this transfer.
	CompleteAt sim.Time
	// Err is non-nil when the descriptor completed with a transient
	// engine failure (only Copied bytes landed).
	Err error
	// Copied is how many bytes actually moved (== Len on success).
	Copied units.Bytes
	// fail/partial/perm hold the injected outcome decided at submit
	// time; applied when the transfer completes. perm kills the owning
	// channel at completion.
	fail    bool
	partial int
	perm    bool
}

// complete performs the descriptor's data movement, honoring an
// injected failure: a clean descriptor moves everything; a failed one
// moves only its partial prefix and records ErrEngine.
func (r *DMARequest) complete(pm *mem.PhysMem) units.Bytes {
	dst, src := r.dst, r.src
	if r.fail {
		n := src.Len * units.Bytes(r.partial) / 1000
		dst.Len, src.Len = n, n
		r.Err = ErrEngine
	}
	var n units.Bytes
	if src.Len > 0 {
		n = CopyScatter(pm, []FrameRange{dst}, []FrameRange{src})
	}
	r.Copied = n
	return n
}

// completeOn finalizes a descriptor against its owning channel. A
// descriptor carrying an injected permanent failure kills the channel;
// on a dead channel every descriptor — including the one that killed
// it and anything queued behind it — completes with ErrEngineDead and
// zero bytes moved. Live channels defer to the transient path.
func (d *DMAChannel) completeOn(r *DMARequest) units.Bytes {
	if r.perm && !d.dead {
		d.dead = true
		d.diedAt = d.env.Now()
	}
	if d.dead {
		r.Err = ErrEngineDead
		r.Copied = 0
		return 0
	}
	return r.complete(d.pm)
}

// Kill marks the engine permanently dead, as if the next completion
// had drawn Outcome.Perm: no further bytes move and every outstanding
// or future descriptor completes with ErrEngineDead. Idempotent.
func (d *DMAChannel) Kill() {
	if !d.dead {
		d.dead = true
		d.diedAt = d.env.Now()
	}
}

// Dead reports whether the engine has permanently failed.
func (d *DMAChannel) Dead() bool { return d.dead }

// DiedAt reports when the engine died (0 if alive).
func (d *DMAChannel) DiedAt() sim.Time {
	if !d.dead {
		return 0
	}
	return d.diedAt
}

// DMAChannel is an on-chip DMA engine. Transfers proceed in background
// virtual time without occupying any CPU; each descriptor requires the
// source and destination to be physically contiguous (§4.3).
type DMAChannel struct {
	env *sim.Env
	pm  *mem.PhysMem
	// busyUntil is when the channel drains its current queue.
	busyUntil sim.Time
	// BytesCopied accumulates for accounting.
	BytesCopied int64
	// Submitted counts descriptors.
	Submitted int64
	// Faults counts descriptors the fault layer failed or stalled.
	Faults int64
	// inj, when non-nil, is consulted once per descriptor at submit
	// time (nil-safe: a nil injector injects nothing).
	inj *fault.Injector
	// BusyCycles accumulates transfer occupancy for utilization
	// reporting (stall cycles included — the engine is held either
	// way).
	BusyCycles int64
	// node/numa place the engine on a NUMA topology.
	node int
	numa *topo.Topology
	// track names the engine's timeline row; per-node engines get
	// distinct rows ("hw:DMA0", "hw:DMA1", ...).
	track string
	// batchPool recycles EnqueueBatch carriers (descriptor arena +
	// completion-walk closure), so a steady stream of batches
	// allocates nothing. Safe without locking: the simulation is
	// single-threaded per environment.
	batchPool []*dmaBatch
	// dead marks a permanent engine failure (injected Outcome.Perm or
	// Kill). A dead engine moves no bytes: every queued or future
	// descriptor completes with ErrEngineDead at its scheduled time
	// (the detection latency a real completion interrupt would have).
	dead   bool
	diedAt sim.Time
}

// SetFaultInjector attaches a fault injector; nil detaches it.
func (d *DMAChannel) SetFaultInjector(in *fault.Injector) { d.inj = in }

// decideFault consults the injector for one descriptor of n bytes,
// stamps the verdict on req, and returns the extra stall cycles to
// fold into the transfer duration. Emits EvFaultInjected when the
// outcome is faulty.
func (d *DMAChannel) decideFault(req *DMARequest, n units.Bytes) sim.Time {
	o := d.inj.At(fault.SiteDMA)
	if !o.Faulty() {
		return 0
	}
	d.Faults++
	req.fail = o.Fail
	req.partial = o.Partial
	req.perm = o.Perm
	code := int64(0)
	if o.Fail {
		code |= 1
	}
	if o.Stall > 0 {
		code |= 2
	}
	if o.Perm {
		code |= 4
	}
	d.env.Recorder().On(d.track, obs.EvFaultInjected, int64(d.env.Now()), 0, "fault", int64(n), code)
	return sim.Time(o.Stall)
}

// NewDMAChannel creates a DMA engine on NUMA node node of topology t:
// transfer costs are distance-scaled (cycles.NUMACopyCost against the
// worst leg the engine sees), which at DistLocal is exactly the flat
// cost. On a multi-node topology the engine gets its own timeline row
// ("hw:DMA0", "hw:DMA1", ...); on one node (or a nil topology) the row
// stays "hw:DMA".
func NewDMAChannel(env *sim.Env, pm *mem.PhysMem, node int, t *topo.Topology) *DMAChannel {
	if node < 0 || node >= t.Nodes() {
		panic(fmt.Sprintf("hw: DMA engine on node %d of %d-node topology", node, t.Nodes()))
	}
	d := &DMAChannel{env: env, pm: pm, node: node, numa: t, track: "hw:DMA"}
	if t.Nodes() > 1 {
		d.track += strconv.Itoa(node)
	}
	return d
}

// Track returns the engine's timeline row name.
func (d *DMAChannel) Track() string { return d.track }

// xferDur is the engine occupancy of one descriptor: the flat DMA
// cost, scaled by the NUMA distance the transfer spans, plus the fixed
// remote-hop latency (zero at DistLocal).
func (d *DMAChannel) xferDur(dst, src FrameRange) sim.Time {
	dist := d.numa.PairDist(d.node, d.pm.NodeOf(src.Frame), d.pm.NodeOf(dst.Frame))
	return cycles.NUMACopyCost(cycles.UnitDMA, src.Len, dist) + cycles.NUMAXferLatency(dist)
}

// XferCost reports what one descriptor would occupy the engine for,
// including any NUMA distance penalty — the quantity the service's
// engine steering compares across engines.
func (d *DMAChannel) XferCost(dst, src FrameRange) sim.Time { return d.xferDur(dst, src) }

// dmaBatch carries one EnqueueBatch submission through its completion
// walk: the descriptor arena, the cursor, and the pre-bound step
// closure. Carriers are recycled through the channel's pool once the
// walk finishes.
type dmaBatch struct {
	d      *DMAChannel
	reqs   []DMARequest
	i      int
	onDone func(i int, err error)
	step   func()
}

// getBatch pops a recycled carrier or builds one with its step
// closure bound once.
func (d *DMAChannel) getBatch() *dmaBatch {
	if n := len(d.batchPool); n > 0 {
		b := d.batchPool[n-1]
		d.batchPool[n-1] = nil
		d.batchPool = d.batchPool[:n-1]
		return b
	}
	b := &dmaBatch{d: d}
	b.step = func() {
		req := &b.reqs[b.i]
		b.d.BytesCopied += int64(b.d.completeOn(req))
		if b.onDone != nil {
			b.onDone(b.i, req.Err)
		}
		b.i++
		if b.i < len(b.reqs) {
			b.d.env.Schedule(b.reqs[b.i].CompleteAt-b.d.env.Now(), b.step)
			return
		}
		// Walk done: recycle. The onDone callback may already have
		// enqueued a follow-up batch; it drew a different carrier
		// because this one is only pushed back here.
		b.onDone = nil
		b.reqs = b.reqs[:0]
		b.d.batchPool = append(b.d.batchPool, b)
	}
	return b
}

// EnqueueBatch enqueues all pairs back to back without charging any
// submission cost (callers Exec the amortized batch cost themselves).
// The channel drains its queue FIFO, so completion is driven by a
// single live event that walks the batch in order: each step performs
// the descriptor's data movement (possibly partial under an injected
// fault), invokes onDone(i, err) and reschedules itself for the next descriptor — one event in the heap
// per batch instead of one per descriptor. err is nil on success and
// ErrEngine when the fault layer failed the descriptor. pairs is
// copied into the carrier's arena during the call; the caller may
// reuse it immediately.
func (d *DMAChannel) EnqueueBatch(pairs [][2]FrameRange, onDone func(i int, err error)) {
	if len(pairs) == 0 {
		return
	}
	now := d.env.Now()
	start := d.busyUntil
	if start < now {
		start = now
	}
	b := d.getBatch()
	b.onDone = onDone
	b.i = 0
	reqs := b.reqs[:0]
	r := d.env.Recorder()
	for _, pr := range pairs {
		dst, src := pr[0], pr[1]
		if dst.Len != src.Len {
			panic(fmt.Sprintf("hw: DMA length mismatch %d != %d", dst.Len, src.Len))
		}
		reqs = append(reqs, DMARequest{dst: dst, src: src})
		req := &reqs[len(reqs)-1]
		// An injected stall extends the transfer's occupancy of the
		// engine, so later descriptors in the queue see it too.
		dur := d.xferDur(dst, src) + d.decideFault(req, src.Len)
		req.CompleteAt = start + dur
		d.BusyCycles += int64(dur)
		r.On(d.track, obs.EvDMASubmit, int64(now), 0, "submit", int64(src.Len), 0)
		// The channel drains its queue in order: the transfer occupies
		// [start, start+dur), possibly beginning in the future.
		r.On(d.track, obs.EvUnitBusyInterval, int64(start), int64(dur), "xfer", int64(src.Len), 0)
		start = req.CompleteAt
	}
	b.reqs = reqs
	d.busyUntil = start
	d.Submitted += int64(len(pairs))
	d.env.Schedule(reqs[0].CompleteAt-now, b.step)
}

// BusyUntil reports when the channel's queue drains.
func (d *DMAChannel) BusyUntil() sim.Time { return d.busyUntil }
