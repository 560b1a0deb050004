// Package mem implements the simulated machine's memory subsystem:
// physical frames, per-process address spaces with page tables and
// VMAs, demand paging, copy-on-write, page pinning, and the mapping
// change notifications Copier's ATCache relies on (§4.3, §4.5.4).
//
// Data is real: every frame is backed by bytes, so copies performed by
// the simulated hardware genuinely move data and all higher-level
// correctness checks (absorption, dependency ordering, the refinement
// model) compare actual memory contents.
package mem

import (
	"errors"
	"fmt"

	"copier/internal/units"
)

// PageSize is the simulated page size in bytes (4 KB, as on the
// paper's x86 testbed). It equals units.PageSize; both are untyped
// constants so they compose with VA and plain-int arithmetic.
const PageSize = units.PageSize

// PageShift is log2(PageSize).
const PageShift = 12

// chunkFrames is how many frames one backing chunk holds: PhysMem
// materializes its bytes 64 frames (256 KB) at a time, on first touch.
const chunkFrames = 64

// Frame is a physical frame number.
type Frame int32

// NoFrame marks an unmapped PTE.
const NoFrame Frame = -1

// ErrNoMemory is returned when the physical allocator is exhausted.
var ErrNoMemory = errors.New("mem: out of physical frames")

// PhysMem is the machine's physical memory: a frame allocator plus the
// backing bytes. The bytes live in chunks of chunkFrames frames, each
// allocated (already zero) by the first FrameBytes call into it, so a
// machine costs host memory for the frames a run touches, not for its
// configured size. Like everything a simulation owns, a PhysMem belongs
// to one job or shard and is never touched by two host threads at once.
type PhysMem struct {
	nframes int
	chunks  [][]byte // nil until first touch
	refcnt  []int32  // frames shared by CoW have refcnt > 1
	free    []bool
	nfree   int
	// nnodes is the number of NUMA nodes, each owning perNode frames
	// (the last node also owns the remainder): one until
	// ConfigureNodes partitions the frame space (numa.go).
	nnodes  int
	perNode int
}

// NewPhysMem creates a physical memory of size bytes (rounded down to
// whole frames).
func NewPhysMem(size int64) *PhysMem {
	n := int(size >> PageShift)
	if n <= 0 {
		panic("mem: physical memory smaller than one page")
	}
	pm := &PhysMem{
		nframes: n,
		chunks:  make([][]byte, (n+chunkFrames-1)/chunkFrames),
		refcnt:  make([]int32, n),
		free:    make([]bool, n),
		nfree:   n,
		nnodes:  1,
		perNode: n,
	}
	for i := range pm.free {
		pm.free[i] = true
	}
	return pm
}

// NumFrames returns the total number of physical frames.
func (pm *PhysMem) NumFrames() int { return pm.nframes }

// FreeFrames returns the number of currently free frames.
func (pm *PhysMem) FreeFrames() int { return pm.nfree }

// AllocFrame allocates one frame with refcount 1. The frame's contents
// are zeroed (the simulated kernel charges the zeroing cost
// separately).
func (pm *PhysMem) AllocFrame() (Frame, error) {
	fs, err := pm.AllocFrames(1)
	if err != nil {
		return NoFrame, err
	}
	return fs[0], nil
}

// AllocFrames allocates n frames with no node preference: the whole
// frame space is one range (allocInRange).
func (pm *PhysMem) AllocFrames(npages units.Pages) ([]Frame, error) {
	n := int(npages)
	if n > pm.nfree {
		return nil, ErrNoMemory
	}
	return pm.allocInRange(0, pm.nframes, make([]Frame, 0, n), n), nil
}

// allocInRange appends frames from [lo, hi) to out until it holds n:
// the first free run as long as the rest of the request when the range
// has one, else the lowest free frames. The DMA engine needs
// physically contiguous runs (§4.3), so this rule decides how copies
// of the allocated buffers split into descriptors.
func (pm *PhysMem) allocInRange(lo, hi int, out []Frame, n int) []Frame {
	want, run := n-len(out), 0
	for f := lo; f < hi; f++ {
		if !pm.free[f] {
			run = 0
			continue
		}
		if run++; run == want {
			for g := f - want + 1; g <= f; g++ {
				out = append(out, pm.take(Frame(g)))
			}
			return out
		}
	}
	for f := lo; f < hi && len(out) < n; f++ {
		if pm.free[f] {
			out = append(out, pm.take(Frame(f)))
		}
	}
	return out
}

func (pm *PhysMem) take(f Frame) Frame {
	if !pm.free[f] {
		panic(fmt.Sprintf("mem: double allocation of frame %d", f))
	}
	pm.free[f] = false
	pm.nfree--
	pm.refcnt[f] = 1
	// Zero the frame (demand-zero semantics). Going through FrameBytes
	// also materializes its chunk, so copy paths that must not allocate
	// never take the first touch of an allocated frame.
	b := pm.FrameBytes(f)
	for i := range b {
		b[i] = 0
	}
	return f
}

// IncRef adds a reference to a frame (CoW sharing).
func (pm *PhysMem) IncRef(f Frame) {
	pm.checkFrame(f)
	if pm.refcnt[f] <= 0 {
		panic(fmt.Sprintf("mem: IncRef of free frame %d", f))
	}
	pm.refcnt[f]++
}

// DecRef drops a reference; the frame is freed when the count reaches
// zero.
func (pm *PhysMem) DecRef(f Frame) {
	pm.checkFrame(f)
	if pm.refcnt[f] <= 0 {
		panic(fmt.Sprintf("mem: DecRef of free frame %d", f))
	}
	pm.refcnt[f]--
	if pm.refcnt[f] == 0 {
		pm.free[f] = true
		pm.nfree++
	}
}

// RefCount returns the current reference count of f.
func (pm *PhysMem) RefCount(f Frame) int32 {
	pm.checkFrame(f)
	return pm.refcnt[f]
}

func (pm *PhysMem) checkFrame(f Frame) {
	if f < 0 || int(f) >= pm.nframes {
		panic(fmt.Sprintf("mem: bad frame %d", f))
	}
}

// FrameBytes returns the backing bytes of one frame, capped at
// PageSize. The first call into a chunk allocates it; a fresh chunk is
// zero, which is what untouched RAM reads as.
func (pm *PhysMem) FrameBytes(f Frame) []byte {
	pm.checkFrame(f)
	c := &pm.chunks[int(f)/chunkFrames]
	if *c == nil {
		base := int(f) - int(f)%chunkFrames
		*c = make([]byte, min(pm.nframes-base, chunkFrames)<<PageShift)
	}
	off := (int(f) % chunkFrames) << PageShift
	return (*c)[off : off+PageSize : off+PageSize]
}

// Contiguous reports whether b immediately follows a in physical
// memory.
func Contiguous(a, b Frame) bool { return b == a+1 }
