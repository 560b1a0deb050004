package core

import (
	"fmt"

	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// DefaultSegSize is the default copy segment granularity (§4.1:
// "Copier partitions a copy into several segments, i.e., fixed-size
// regions"). 1 KB balances descriptor-update overhead against
// pipeline granularity; clients can override it per task.
const DefaultSegSize = 1024

// Descriptor tracks the per-segment completion state of one Copy Task
// — "a bitmap tracking the copy status of each segment — which is
// checked by clients to confirm the progress of the copy" (§4.1).
//
// A descriptor belongs to the destination range [Base, Base+Len). A
// set bit means the segment's data has reached the destination (and
// may since have been modified by the client — layered absorption
// relies on exactly this reading, §4.4).
type Descriptor struct {
	Base    mem.VA
	Len     units.Bytes
	SegSize units.Bytes

	bits []uint64
	nset int

	// Err records a failed task (security violation, unresolvable
	// fault). csync on an errored descriptor returns the error
	// (§4.5.4: "Copier drops the task and signals the process").
	Err error

	// watch, when created by a waiter, broadcasts on every progress
	// update. Descriptors on shared memory are csynced by processes
	// other than the submitter (§5.1.1 "Shared memory"), which cannot
	// wait on the submitting client's progress signal.
	watch *sim.Signal
}

// Watch returns the descriptor's progress signal, creating it on
// first use. The service broadcasts it after each update.
func (d *Descriptor) Watch() *sim.Signal {
	if d.watch == nil {
		d.watch = sim.NewSignal("descr-watch")
	}
	return d.watch
}

// NotifyProgress broadcasts to watchers, if any. The service calls
// this after marking segments or recording an error.
func (d *Descriptor) NotifyProgress(e *sim.Env) {
	if d.watch != nil {
		d.watch.Broadcast(e)
	}
}

// NewDescriptor creates a descriptor for a destination range.
func NewDescriptor(base mem.VA, length, segSize units.Bytes) *Descriptor {
	d := new(Descriptor)
	d.init(base, length, segSize)
	return d
}

// init points d at a destination range with every segment clear and
// no error or watcher, keeping d's bitmap storage when it is large
// enough.
func (d *Descriptor) init(base mem.VA, length, segSize units.Bytes) {
	if segSize <= 0 {
		segSize = DefaultSegSize
	}
	if length < 0 {
		panic("core: negative descriptor length")
	}
	words := (numSegs(length, segSize) + 63) / 64
	bits := d.bits
	if cap(bits) < words {
		bits = make([]uint64, words)
	} else {
		bits = bits[:words]
		clear(bits)
	}
	*d = Descriptor{Base: base, Len: length, SegSize: segSize, bits: bits}
}

func numSegs(length, segSize units.Bytes) int {
	if length == 0 {
		return 0
	}
	return int((length + segSize - 1) / segSize)
}

// NumSegsFor returns the segment count of a copy of the given length
// and granularity (descriptor-pool sizing).
func NumSegsFor(length, segSize units.Bytes) int {
	if segSize <= 0 {
		segSize = DefaultSegSize
	}
	return numSegs(length, segSize)
}

// NumSegs returns the number of segments covered.
func (d *Descriptor) NumSegs() int { return numSegs(d.Len, d.SegSize) }

// Reset clears all bits so the descriptor can be reused for another
// copy onto the same buffer (low-level API optimization, §5.1.1:
// "developers can re-use the descriptor of the same buffer").
func (d *Descriptor) Reset(base mem.VA, length units.Bytes) {
	d.Base = base
	d.Err = nil
	if length > d.Len {
		n := numSegs(length, d.SegSize)
		if need := (n + 63) / 64; need > len(d.bits) {
			d.bits = make([]uint64, need)
		}
	}
	d.Len = length
	for i := range d.bits {
		d.bits[i] = 0
	}
	d.nset = 0
}

// segRange converts a byte range relative to Base into segment
// indices [first, last].
func (d *Descriptor) segRange(off, n units.Bytes) (int, int) {
	if off < 0 || n < 0 || off+n > d.Len {
		panic(fmt.Sprintf("core: descriptor range [%d,%d) outside [0,%d)", off, off+n, d.Len))
	}
	if n == 0 {
		return 0, -1
	}
	return int(off / d.SegSize), int((off + n - 1) / d.SegSize)
}

// SegSet reports whether segment i is marked.
func (d *Descriptor) SegSet(i int) bool { return d.bits[i/64]&(1<<(i%64)) != 0 }

// MarkSeg sets segment i.
func (d *Descriptor) MarkSeg(i int) {
	w, b := i/64, uint(i%64)
	if d.bits[w]&(1<<b) == 0 {
		d.bits[w] |= 1 << b
		d.nset++
	}
}

// MarkRange sets every segment covering [off, off+n) relative to Base.
func (d *Descriptor) MarkRange(off, n units.Bytes) {
	first, last := d.segRange(off, n)
	for i := first; i <= last; i++ {
		d.MarkSeg(i)
	}
}

// ClearSeg unsets segment i.
func (d *Descriptor) ClearSeg(i int) {
	w, b := i/64, uint(i%64)
	if d.bits[w]&(1<<b) != 0 {
		d.bits[w] &^= 1 << b
		d.nset--
	}
}

// ClearRange unsets every segment covering [off, off+n) relative to
// Base — the failure-recovery path un-issues segments whose transfer
// failed so a later dispatch round re-copies them.
func (d *Descriptor) ClearRange(off, n units.Bytes) {
	first, last := d.segRange(off, n)
	for i := first; i <= last; i++ {
		d.ClearSeg(i)
	}
}

// Ready reports whether every segment covering [off, off+n) is marked.
func (d *Descriptor) Ready(off, n units.Bytes) bool {
	first, last := d.segRange(off, n)
	for i := first; i <= last; i++ {
		if !d.SegSet(i) {
			return false
		}
	}
	return true
}

// Done reports whether the whole destination range is marked.
func (d *Descriptor) Done() bool { return d.nset >= d.NumSegs() }

// Covers reports whether address a falls inside the descriptor's
// destination range.
func (d *Descriptor) Covers(a mem.VA) bool {
	return a >= d.Base && a < d.Base+mem.VA(d.Len)
}
