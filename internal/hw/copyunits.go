// Package hw models the machine's copy hardware: the byte movement
// every copy engine shares (CopyScatter, CopyRange) and an on-chip DMA
// channel in the style of Intel I/OAT. The channel is the engine
// alone: it queues descriptors FIFO, prices each one's background
// transfer time from the calibrated cost model in internal/cycles, and
// moves its bytes when the submitter completes it; walking completions
// in virtual time is the submitter's job. It also provides the
// set-associative cache model used for the §6.3.5 microarchitectural
// study.
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

// ErrEngineDead is the permanent engine failure: the channel died (an
// injected Outcome.Perm) and will never move another byte. Every
// queued and future descriptor completes with this error; callers must
// re-steer the work to a sibling engine or the CPU path rather than
// retry on this channel.
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

// DMARequest is one DMA descriptor queued on a channel: the transfer
// it names, when the engine finishes it, and the fault verdict drawn
// for it when it was queued.
type DMARequest struct {
	dst, src FrameRange
	// CompleteAt is when the engine finishes this transfer.
	CompleteAt sim.Time
	// fail/partial/perm hold the injected outcome Enqueue drew;
	// Complete applies it. perm kills the owning channel at completion.
	fail    bool
	partial int
	perm    bool
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
// source and destination to be physically contiguous (§4.3). The
// channel models the engine only: Enqueue prices a descriptor into the
// FIFO queue, and the submitter calls Complete for it at its
// CompleteAt.
type DMAChannel struct {
	env *sim.Env
	pm  *mem.PhysMem
	// busyUntil is when the channel drains its current queue.
	busyUntil sim.Time
	// BytesCopied accumulates for accounting.
	BytesCopied int64
	// Submitted counts descriptors.
	Submitted int64
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
	// dead marks a permanent engine failure (an injected Outcome.Perm).
	// A dead engine moves no bytes: every queued or future descriptor
	// completes with ErrEngineDead at its scheduled time (the detection
	// latency a real completion interrupt would have).
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

// XferCost is the engine occupancy of one descriptor: the flat DMA
// cost, scaled by the NUMA distance the transfer spans, plus the fixed
// remote-hop latency (zero at DistLocal). The service's engine
// steering compares it across engines.
func (d *DMAChannel) XferCost(dst, src FrameRange) sim.Time {
	dist := d.numa.PairDist(d.node, d.pm.NodeOf(src.Frame), d.pm.NodeOf(dst.Frame))
	return cycles.NUMACopyCost(cycles.UnitDMA, src.Len, dist) + cycles.NUMAXferLatency(dist)
}

// Enqueue queues one descriptor behind the engine's outstanding work
// without charging any submission cost (the submitter Execs the
// doorbell itself) and returns it with CompleteAt set. The fault layer
// decides the descriptor's outcome now; an injected stall extends its
// occupancy of the engine, so later descriptors see it too. Nothing
// moves until the submitter calls Complete at CompleteAt.
func (d *DMAChannel) Enqueue(dst, src FrameRange) DMARequest {
	if dst.Len != src.Len {
		panic(fmt.Sprintf("hw: DMA length mismatch %d != %d", dst.Len, src.Len))
	}
	now := d.env.Now()
	start := max(d.busyUntil, now)
	req := DMARequest{dst: dst, src: src}
	dur := d.XferCost(dst, src) + d.decideFault(&req, src.Len)
	req.CompleteAt = start + dur
	d.busyUntil = req.CompleteAt
	d.BusyCycles += int64(dur)
	d.Submitted++
	r := d.env.Recorder()
	r.On(d.track, obs.EvDMASubmit, int64(now), 0, "submit", int64(src.Len), 0)
	// The channel drains its queue in order: the transfer occupies
	// [start, CompleteAt), possibly beginning in the future.
	r.On(d.track, obs.EvUnitBusyInterval, int64(start), int64(dur), "xfer", int64(src.Len), 0)
	return req
}

// Complete performs req's data movement as the engine finishes it and
// returns its error: nil for a clean transfer; ErrEngine when the
// fault layer failed it, after moving only its partial prefix; and
// ErrEngineDead, with nothing moved, once the channel has died. A
// descriptor carrying an injected permanent failure kills the channel
// as it completes, and with it everything queued behind.
func (d *DMAChannel) Complete(req *DMARequest) error {
	if req.perm && !d.dead {
		d.dead = true
		d.diedAt = d.env.Now()
	}
	if d.dead {
		return ErrEngineDead
	}
	dst, src := req.dst, req.src
	var err error
	if req.fail {
		n := src.Len * units.Bytes(req.partial) / 1000
		dst.Len, src.Len = n, n
		err = ErrEngine
	}
	if src.Len > 0 {
		d.BytesCopied += int64(CopyRange(d.pm, dst, src))
	}
	return err
}

// BusyUntil reports when the channel's queue drains.
func (d *DMAChannel) BusyUntil() sim.Time { return d.busyUntil }
