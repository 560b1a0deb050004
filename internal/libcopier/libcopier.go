// Package libcopier is the client library of the Copier service
// (§5.1.1, Table 2): high-level amemcpy/csync with per-process default
// queues and automatic descriptor management, and low-level variants
// with customized descriptors for framework developers.
//
// All functions charge client-side cycles through the caller's
// execution context; the service performs the copies in its own
// threads.
package libcopier

import (
	"errors"
	"fmt"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// ErrQueueFull is returned when the client's Copy Queue has no free
// slot (callers may retry or fall back to sync copy).
var ErrQueueFull = errors.New("libcopier: copy queue full")

// Lib is the per-process libCopier state: the Copier client with its
// default queues, the descriptor pool and the dst→descriptor lookup
// table used by csync.
type Lib struct {
	client *core.Client

	// active holds descriptors of in-flight copies, newest last;
	// csync scans newest-first so the latest copy onto a buffer
	// governs readiness.
	active []*activeDesc
	// pool recycles descriptors by segment-count bucket
	// ("libCopier maintains a descriptor pool", §5.1.1).
	pool map[int][]*core.Descriptor
	// bindings are shared-memory descriptor bindings (§5.1.1).
	bindings []*ShmBinding

	// Stats
	Submitted int64
	Csyncs    int64
	CsyncHits int64 // csync found data already ready
	Recycled  int64
}

type activeDesc struct {
	desc *core.Descriptor
	task *core.Task
}

// New wraps a Copier client in per-process library state.
func New(client *core.Client) *Lib {
	return &Lib{client: client, pool: make(map[int][]*core.Descriptor)}
}

// Opts customizes low-level submissions (_amemcpy, Table 2).
type Opts struct {
	// KMode submits to the kernel-mode queue set (OS services only).
	KMode bool
	// Handler is the post-copy FUNC (KFUNC when Handler.Kernel).
	Handler *core.Handler
	// Desc reuses a caller-managed descriptor instead of the pool.
	Desc *core.Descriptor
	// SegSize overrides the segment granularity.
	SegSize units.Bytes
	// Lazy marks a Lazy Copy Task (§4.4).
	Lazy bool
	// LazyDeadline bounds how long a lazy task may linger; zero uses
	// defaultLazyPeriod (2 ms after submission).
	LazyDeadline sim.Time
	// SrcAS/DstAS override the address spaces (kernel services copy
	// across spaces); nil defaults to the client's user space (or
	// kernel space for KMode sources/destinations as appropriate).
	SrcAS, DstAS *mem.AddrSpace
	// NoTrack skips the csync lookup table (callers hold the
	// descriptor and csync through CsyncDesc).
	NoTrack bool
}

// Amemcpy is the high-level asynchronous memcpy: it allocates a
// descriptor from the pool, submits a Copy Task on the default user
// queue and returns immediately (Fig. 4).
func (l *Lib) Amemcpy(ctx core.Ctx, dst, src mem.VA, n units.Bytes) error {
	return l.AmemcpyOpts(ctx, dst, src, n, Opts{})
}

// AmemcpyOpts is the low-level _amemcpy with explicit options.
func (l *Lib) AmemcpyOpts(ctx core.Ctx, dst, src mem.VA, n units.Bytes, o Opts) error {
	if n < 0 {
		return fmt.Errorf("libcopier: negative length %d", n)
	}
	if n == 0 {
		return nil
	}
	srcAS, dstAS := o.SrcAS, o.DstAS
	if srcAS == nil {
		srcAS = l.client.UAS
	}
	if dstAS == nil {
		dstAS = l.client.UAS
	}
	segSize := o.SegSize
	if segSize <= 0 {
		segSize = core.DefaultSegSize
	}
	desc := o.Desc
	if desc == nil {
		ctx.Exec(cycles.DescriptorAlloc)
		desc = l.allocDesc(dst, n, segSize)
	}
	deadline := o.LazyDeadline
	if o.Lazy && deadline == 0 {
		deadline = ctx.Now() + defaultLazyPeriod
	}
	t := &core.Task{
		Src: src, Dst: dst, SrcAS: srcAS, DstAS: dstAS,
		Len: n, SegSize: segSize, Desc: desc,
		Handler: o.Handler, Lazy: o.Lazy, LazyDeadline: deadline,
	}
	ctx.Exec(cycles.SubmitTask)
	if !l.client.SubmitCopy(t, o.KMode) {
		return ErrQueueFull
	}
	l.Submitted++
	if !o.NoTrack {
		l.pruneCompleted()
		l.active = append(l.active, &activeDesc{desc: desc, task: t})
	}
	return nil
}

// pruneCompleted recycles descriptors of finished copies back into
// the pool.
func (l *Lib) pruneCompleted() {
	out := l.active[:0]
	for _, ad := range l.active {
		if ad.task != nil && (ad.task.Executed() || ad.task.Aborted()) && ad.desc.Err == nil && ad.desc.Done() {
			bucket := (ad.desc.NumSegs() + 7) / 8
			l.pool[bucket] = append(l.pool[bucket], ad.desc)
			l.Recycled++
			continue
		}
		out = append(out, ad)
	}
	l.active = out
}

// defaultLazyPeriod is how long a Lazy Task may linger before forced
// execution (§4.4) when Opts.LazyDeadline is zero: 2 ms.
const defaultLazyPeriod = 2 * cycles.CyclesPerMicrosecond * 1000

// Amemmove is the overlap-safe asynchronous memmove: overlapping
// ranges are split into two tasks, submitting first the part whose
// source the other part will overwrite (§4.1 footnote).
func (l *Lib) Amemmove(ctx core.Ctx, dst, src mem.VA, n units.Bytes) error {
	return l.AmemmoveOpts(ctx, dst, src, n, Opts{})
}

// AmemmoveOpts is Amemmove with explicit options. Overlapping ranges
// are split into chunks no larger than the overlap distance,
// submitted in the direction that guarantees every chunk's source is
// read before any other chunk overwrites it (the paper's §4.1
// footnote splits once; chunking generalizes it to overlaps larger
// than half the copy).
func (l *Lib) AmemmoveOpts(ctx core.Ctx, dst, src mem.VA, n units.Bytes, o Opts) error {
	if dst == src || n == 0 {
		return nil
	}
	overlap := dst < src+mem.VA(n) && src < dst+mem.VA(n)
	if !overlap {
		return l.AmemcpyOpts(ctx, dst, src, n, o)
	}
	if dst > src {
		// Forward overlap: submit chunks back to front.
		d := units.Bytes(dst - src)
		for end := n; end > 0; {
			start := end - d
			if start < 0 {
				start = 0
			}
			if err := l.AmemcpyOpts(ctx, dst+mem.VA(start), src+mem.VA(start), end-start, o); err != nil {
				return err
			}
			end = start
		}
		return nil
	}
	// Backward overlap: submit chunks front to back.
	d := units.Bytes(src - dst)
	for start := units.Bytes(0); start < n; start += d {
		ln := d
		if start+ln > n {
			ln = n - start
		}
		if err := l.AmemcpyOpts(ctx, dst+mem.VA(start), src+mem.VA(start), ln, o); err != nil {
			return err
		}
	}
	return nil
}

// Csync ensures all prior async copies covering [addr, addr+n) have
// landed before the caller touches the data (Fig. 4). It checks the
// descriptor bitmap; when segments are missing it submits a Sync Task
// (raising their priority) and busy-polls until ready.
func (l *Lib) Csync(ctx core.Ctx, addr mem.VA, n units.Bytes) error {
	ctx.Exec(cycles.CsyncCheck)
	l.Csyncs++
	// The range may span several in-flight copies (e.g. a chunked
	// memmove); sync the intersection with each, newest first.
	var targets []*activeDesc
	for i := len(l.active) - 1; i >= 0; i-- {
		ad := l.active[i]
		if core.RangesOverlap(ad.desc.Base, ad.desc.Len, addr, n) {
			targets = append(targets, ad)
		}
	}
	if len(targets) == 0 {
		// No async copy covers the address: already consistent.
		l.CsyncHits++
		return nil
	}
	for _, ad := range targets {
		lo := addr
		if ad.desc.Base > lo {
			lo = ad.desc.Base
		}
		hi := addr + mem.VA(n)
		if end := ad.desc.Base + mem.VA(ad.desc.Len); end < hi {
			hi = end
		}
		if err := l.csyncDesc(ctx, ad, units.Bytes(lo-ad.desc.Base), units.Bytes(hi-lo)); err != nil {
			return err
		}
	}
	return nil
}

// CsyncDesc is the low-level _csync against a caller-held descriptor
// (offset-based, Table 2).
func (l *Lib) CsyncDesc(ctx core.Ctx, desc *core.Descriptor, off, n units.Bytes) error {
	ctx.Exec(cycles.CsyncCheck)
	l.Csyncs++
	return l.csyncDesc(ctx, &activeDesc{desc: desc}, off, n)
}

// csyncDesc waits until [off, off+n) of ad's descriptor has landed,
// raising the missing segments with a Sync Task on the user queue.
func (l *Lib) csyncDesc(ctx core.Ctx, ad *activeDesc, off, n units.Bytes) error {
	d := ad.desc
	if d.Err != nil {
		return d.Err
	}
	if d.Ready(off, n) {
		l.CsyncHits++
		l.maybeRecycle(ad)
		return nil
	}
	ctx.Exec(cycles.CsyncSubmit)
	l.client.SubmitSync(d.Base+mem.VA(off), n, false)
	// Wait on the descriptor's own watch signal: descriptors on
	// shared memory may be csynced by a process other than the
	// submitter (§5.1.1).
	watch := d.Watch()
	for !d.Ready(off, n) {
		if d.Err != nil {
			return d.Err
		}
		ctx.Exec(cycles.CsyncPoll)
		// Exec yields: the copy may have completed (and broadcast)
		// meanwhile. Re-check before registering on the watch — the
		// check+register pair runs without yielding, so no wakeup can
		// be lost.
		if d.Ready(off, n) || d.Err != nil {
			continue
		}
		ctx.SpinUntil(watch)
	}
	l.maybeRecycle(ad)
	return nil
}

// CsyncAll ensures every outstanding async copy and queued FUNC of
// the process finishes (Table 2).
func (l *Lib) CsyncAll(ctx core.Ctx) error {
	ctx.Exec(cycles.CsyncCheck)
	var firstErr error
	for len(l.active) > 0 {
		ad := l.active[len(l.active)-1]
		err := l.csyncDesc(ctx, ad, 0, ad.desc.Len)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		// Unlike csync, wait for full task completion so the FUNC is
		// queued (or run) before we return.
		for ad.task != nil && !ad.task.Executed() && !ad.task.Aborted() {
			ctx.Exec(cycles.CsyncPoll)
			if ad.task.Executed() || ad.task.Aborted() {
				break
			}
			ctx.SpinUntil(l.client.Progress)
		}
		l.drop(ad)
	}
	l.PostHandlers(ctx)
	return firstErr
}

// Abort explicitly discards still-queued copies onto [addr, addr+n)
// (§4.4); the affected descriptors are dropped from tracking. Each
// matching in-flight copy is aborted by descriptor identity, so a
// later copy reusing the same buffer is never collaterally discarded.
func (l *Lib) Abort(ctx core.Ctx, addr mem.VA, n units.Bytes) {
	out := l.active[:0]
	for _, ad := range l.active {
		if core.RangesOverlap(ad.desc.Base, ad.desc.Len, addr, n) {
			ctx.Exec(cycles.SubmitTask)
			l.client.SubmitAbortDesc(ad.desc, false)
			continue
		}
		out = append(out, ad)
	}
	l.active = out
}

// PostHandlers drains the Handler Queue, running queued UFUNCs
// (post_handlers in Fig. 4). Returns the number run.
func (l *Lib) PostHandlers(ctx core.Ctx) int {
	n := 0
	for {
		h := l.client.PopHandler()
		if h == nil {
			return n
		}
		ctx.Exec(cycles.HandlerDispatch + h.Cost)
		if h.Fn != nil {
			h.Fn()
		}
		n++
	}
}

// lookup finds the newest active descriptor covering addr.
func (l *Lib) lookup(addr mem.VA) *activeDesc {
	for i := len(l.active) - 1; i >= 0; i-- {
		if l.active[i].desc.Covers(addr) {
			return l.active[i]
		}
	}
	return nil
}

// allocDesc fetches a pooled descriptor or makes a new one.
func (l *Lib) allocDesc(base mem.VA, n, segSize units.Bytes) *core.Descriptor {
	bucket := (core.NumSegsFor(n, segSize) + 7) / 8
	if ds := l.pool[bucket]; len(ds) > 0 {
		d := ds[len(ds)-1]
		l.pool[bucket] = ds[:len(ds)-1]
		d.Reset(base, n)
		return d
	}
	return core.NewDescriptor(base, n, segSize)
}

// maybeRecycle returns a fully-complete tracked descriptor to the
// pool.
func (l *Lib) maybeRecycle(ad *activeDesc) {
	if ad.task == nil || !ad.desc.Done() {
		return
	}
	if !ad.task.Executed() {
		return
	}
	l.drop(ad)
}

func (l *Lib) drop(ad *activeDesc) {
	for i, x := range l.active {
		if x == ad {
			l.active = append(l.active[:i], l.active[i+1:]...)
			bucket := (ad.desc.NumSegs() + 7) / 8
			l.pool[bucket] = append(l.pool[bucket], ad.desc)
			l.Recycled++
			return
		}
	}
}

// ActiveDescriptors reports in-flight tracked copies.
func (l *Lib) ActiveDescriptors() int { return len(l.active) }

// ShmBinding associates a shared-memory region with a descriptor
// living on a dedicated shared buffer (Dshm), so csync on shm
// addresses resolves by offset (§5.1.1 "Shared memory").
//
// Lifecycle (lifelint-checked): a binding stays registered — and its
// descriptor pinned to the region — until UnbindShm; dropping one
// leaks the registration for the process lifetime. ROADMAP item 3's
// Asubmit ticket (COWAIT/COSTATUS) will be specified the same way,
// with one more annotation block and no analyzer changes.
//
//copier:lifecycle type ShmBinding states=bound,unbound accept=unbound dead=unbound
//copier:lifecycle new Lib.ShmDescrBind -> bound
//copier:lifecycle op Lib.UnbindShm bound -> unbound
type ShmBinding struct {
	Base mem.VA
	Len  units.Bytes
	Desc *core.Descriptor
}

// ShmDescrBind binds the shared-memory region starting at shm to
// desc (shm_descr_bind, Table 2). Subsequent CsyncShm calls on
// addresses inside the region wait on the bound descriptor by offset.
func (l *Lib) ShmDescrBind(shm mem.VA, length units.Bytes, desc *core.Descriptor) *ShmBinding {
	b := &ShmBinding{Base: shm, Len: length, Desc: desc}
	l.bindings = append(l.bindings, b)
	return b
}

// CsyncShm syncs [addr, addr+n) against the shm binding covering it;
// it falls back to the regular lookup when no binding matches.
func (l *Lib) CsyncShm(ctx core.Ctx, addr mem.VA, n units.Bytes) error {
	for _, b := range l.bindings {
		if addr >= b.Base && addr < b.Base+mem.VA(b.Len) {
			ctx.Exec(cycles.CsyncCheck)
			l.Csyncs++
			off := units.Bytes(addr - b.Base)
			if off+n > b.Desc.Len {
				n = b.Desc.Len - off
			}
			return l.csyncDesc(ctx, &activeDesc{desc: b.Desc}, off, n)
		}
	}
	return l.Csync(ctx, addr, n)
}

// UnbindShm removes a binding.
func (l *Lib) UnbindShm(b *ShmBinding) {
	for i, x := range l.bindings {
		if x == b {
			l.bindings = append(l.bindings[:i], l.bindings[i+1:]...)
			return
		}
	}
}
