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

// Allocation policies for the frame allocator. The DMA engine requires
// physically contiguous source/destination runs (§4.3); the policy
// controls how fragmented allocations are, which determines subtask
// splitting.
type AllocPolicy int

const (
	// AllocContiguous serves each request from the longest free run
	// (buddy-like): large buffers come out physically contiguous.
	AllocContiguous AllocPolicy = iota
	// AllocFragmented deliberately stripes allocations across free
	// runs so almost no two virtually-adjacent pages are physically
	// adjacent — the worst case of Fig. 7-b.
	AllocFragmented
)

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
	policy  AllocPolicy
	// scan position for AllocFragmented striping
	stripePos int
	// nnodes > 1 after ConfigureNodes partitions the frame space
	// into per-NUMA-node ranges (numa.go); 0 means flat.
	nnodes int
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
	}
	for i := range pm.free {
		pm.free[i] = true
	}
	return pm
}

// SetPolicy selects the allocation policy for subsequent allocations.
func (pm *PhysMem) SetPolicy(p AllocPolicy) { pm.policy = p }

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

// AllocFrames allocates n frames according to the current policy.
func (pm *PhysMem) AllocFrames(npages units.Pages) ([]Frame, error) {
	n := int(npages)
	if n > pm.nfree {
		return nil, ErrNoMemory
	}
	out := make([]Frame, 0, n)
	switch pm.policy {
	case AllocContiguous:
		// First-fit contiguous run; fall back to whatever is free.
		run := pm.findRun(n)
		if run >= 0 {
			for i := 0; i < n; i++ {
				out = append(out, pm.take(Frame(run+i)))
			}
			return out, nil
		}
		for f := 0; f < pm.nframes && len(out) < n; f++ {
			if pm.free[f] {
				out = append(out, pm.take(Frame(f)))
			}
		}
	case AllocFragmented:
		// Stripe with a stride of 2 so virtually-adjacent pages land
		// on non-adjacent frames.
		for len(out) < n {
			f := pm.nextStriped()
			if f < 0 {
				// Allocator wrapped without finding frames at the
				// stride; fall back to linear scan.
				for g := 0; g < pm.nframes && len(out) < n; g++ {
					if pm.free[g] {
						out = append(out, pm.take(Frame(g)))
					}
				}
				break
			}
			out = append(out, pm.take(f))
		}
	}
	if len(out) != n {
		// Roll back (should be unreachable given the nfree check).
		for _, f := range out {
			pm.DecRef(f)
		}
		return nil, ErrNoMemory
	}
	return out, nil
}

func (pm *PhysMem) findRun(n int) int {
	runStart, runLen := -1, 0
	for f := 0; f < pm.nframes; f++ {
		if pm.free[f] {
			if runLen == 0 {
				runStart = f
			}
			runLen++
			if runLen == n {
				return runStart
			}
		} else {
			runLen = 0
		}
	}
	return -1
}

func (pm *PhysMem) nextStriped() Frame {
	for tries := 0; tries < pm.nframes; tries++ {
		f := pm.stripePos
		pm.stripePos = (pm.stripePos + 2) % pm.nframes
		if pm.stripePos == 0 {
			pm.stripePos = 1 // shift phase after wrap
		}
		if pm.free[f] {
			return Frame(f)
		}
	}
	return -1
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
