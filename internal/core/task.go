package core

import (
	"copier/internal/hw"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// Kind discriminates the task types flowing through the CSH queues.
type Kind uint8

const (
	// KindCopy is an asynchronous copy request (amemcpy).
	KindCopy Kind = iota
	// KindBarrier is a cross-queue Barrier Task submitted by the
	// kernel at trap/return, snapshotting the paired user Copy
	// Queue's position (§4.2.1).
	KindBarrier
	// KindSync is a Sync Task raising the priority of the segments
	// covering an address range (task promotion, §4.1).
	KindSync
	// KindAbort is the special Sync Task discarding a still-queued
	// Copy Task explicitly (§4.4: "Copier does not implicitly discard
	// any tasks").
	KindAbort
)

func (k Kind) String() string {
	switch k {
	case KindCopy:
		return "copy"
	case KindBarrier:
		return "barrier"
	case KindSync:
		return "sync"
	case KindAbort:
		return "abort"
	}
	return "kind?"
}

// Handler is the func field of a Copy Task (§4.1 delegation-based
// handling): a post-copy action such as freeing the source buffer.
// Kernel handlers (KFUNC) are run by the Copier thread itself; user
// handlers (UFUNC) are queued to the client's Handler Queue and run by
// libCopier.
type Handler struct {
	// Fn is the action. It runs in simulation context without
	// charging time beyond Cost.
	Fn func()
	// Kernel selects KFUNC (service executes) vs UFUNC (queued to the
	// client).
	Kernel bool
	// Cost is the virtual cycles the action itself consumes.
	Cost sim.Time
}

// Task is one entry in a Copy or Sync Queue.
//
// Lifecycle (lifelint-checked): a task built by a composite literal
// may be submitted once; resubmission requires Reuse, and Reuse is
// legal only before the first submit or after completion was observed
// (Executed/Aborted branched on) — reusing a task with work in flight
// corrupts the descriptor tracking. Dropping a task is always legal
// (the service owns completion), so every state accepts.
//
//copier:lifecycle type Task states=built,submitted,done accept=built,submitted,done
//copier:lifecycle lit -> built
//copier:lifecycle op Client.SubmitCopy built -> submitted
//copier:lifecycle op Client.SubmitCopyOn built -> submitted
//copier:lifecycle op Reuse built,done -> built
//copier:lifecycle op Executed built,submitted,done -> same
//copier:lifecycle test Executed done
//copier:lifecycle op Aborted built,submitted,done -> same
//copier:lifecycle test Aborted done
//copier:lifecycle op Err built,submitted,done -> same
type Task struct {
	ID   uint64
	Kind Kind
	// KMode records which queue set the task was submitted to. It
	// sits beside Kind so the two share one word.
	KMode  bool
	Client *Client

	// Copy fields.
	Src, Dst     mem.VA
	SrcAS, DstAS *mem.AddrSpace
	Len          units.Bytes
	// PhysSrc/PhysDst, when non-empty, address the copy by physical
	// pages instead of VAs — the kernel-only task form (§4.1: tasks
	// are "identified by virtual addresses or pages (used by
	// kernel)"). Physical tasks skip translation, fault handling and
	// pinning (the kernel guarantees the frames), and are exempt from
	// VA-based dependency/absorption analysis.
	PhysSrc, PhysDst []hw.FrameRange
	SegSize          units.Bytes
	Desc             *Descriptor
	Handler          *Handler
	// Lazy marks a Lazy Copy Task (§4.4): lowest priority, executed
	// only when depended upon or when LazyDeadline passes.
	Lazy         bool
	LazyDeadline sim.Time
	// Deadline, when nonzero, is the task's SLO deadline (absolute
	// virtual time): the service sheds the task with ErrDeadline
	// instead of starting it after the deadline passes. A task already
	// dispatched runs to completion regardless.
	Deadline sim.Time

	// Barrier fields: the paired user Copy Queue's acquire position
	// at trap/return, and whether this is the return-side barrier.
	UPos   uint64
	Return bool

	// Sync/Abort fields.
	Addr    mem.VA
	SyncLen units.Bytes
	// AbortDesc, when set on a KindAbort task, discards only the
	// pending Copy Task bound to this descriptor — immune to buffer
	// reuse races that address-range aborts are subject to.
	AbortDesc *Descriptor

	// Runtime state owned by the service.
	orderIdx uint64 // merged admission order (§4.2.1)
	executed bool
	aborted  bool
	// dispatched is set on the task's first dispatcher round; it gates
	// the one-shot EvTaskDispatch emission and survives descriptor
	// reuse, unlike `issued == nil`.
	dispatched bool
	enqueuedAt sim.Time
	// segDone counts completed bytes, to detect full completion
	// without rescanning the descriptor (descriptor may be shared).
	segDone units.Bytes
	// issued marks segments handed to a copy unit (AVX already done,
	// or DMA in flight). prepare skips issued segments; absorption
	// reads through not-yet-completed ones via the descriptor.
	issued *Descriptor
	// pins are the page ranges pinned for the in-flight execution.
	pins []pinRec
	err  error

	// inflight counts outstanding DMA descriptors for this task. It —
	// not descriptor bit comparison — is what awaitInFlight spins on,
	// so a failed transfer (which never marks its segments) still
	// unblocks aborts and teardown.
	inflight int
	// retries counts transient engine failures absorbed so far;
	// retryAt defers re-dispatch until the backoff expires (virtual
	// time, so replays stay deterministic).
	retries int
	retryAt sim.Time
	// pendingErr is set when retries are exhausted: the next service
	// sweep finalizes the task via failTask once inflight drains.
	pendingErr error
}

// Reuse resets the runtime state the service stamped on a completed
// (or failed) task so the identical request can be resubmitted.
// Steady-state drivers recycle their task objects this way instead of
// allocating fresh ones per operation. The request fields (Src, Dst,
// Len, ...) and the task ID are kept; Desc, and the issued tracker if
// the task still holds one, are cleared in place (a task that finished
// gave its tracker back to the service). Reuse of a task with work
// still in flight is a caller bug.
func (t *Task) Reuse() {
	if t.inflight != 0 {
		panic("core: Reuse of task with in-flight DMA")
	}
	t.orderIdx = 0
	t.executed = false
	t.aborted = false
	t.dispatched = false
	t.enqueuedAt = 0
	t.segDone = 0
	base := t.Dst
	if t.phys() {
		base = 0
	}
	if t.issued != nil {
		t.issued.Reset(base, t.Len)
	}
	if t.Desc != nil {
		t.Desc.Reset(base, t.Len)
	}
	t.pins = t.pins[:0]
	t.err = nil
	t.retries = 0
	t.retryAt = 0
	t.pendingErr = nil
}

// Err returns the failure recorded when the service dropped the task.
func (t *Task) Err() error { return t.err }

// Retries reports how many transient engine failures the task
// absorbed.
func (t *Task) Retries() int { return t.retries }

// phys reports whether the task is physically addressed.
func (t *Task) phys() bool { return len(t.PhysDst) > 0 }

// Executed reports whether the service finished (or absorbed away) the
// task.
func (t *Task) Executed() bool { return t.executed }

// Aborted reports whether an abort Sync Task discarded the task.
func (t *Task) Aborted() bool { return t.aborted }

// RangesOverlap reports whether [a, a+an) and [b, b+bn), two ranges in
// one address space, intersect. An empty range overlaps nothing.
func RangesOverlap(a mem.VA, an units.Bytes, b mem.VA, bn units.Bytes) bool {
	if an <= 0 || bn <= 0 {
		return false
	}
	return a < b+mem.VA(bn) && b < a+mem.VA(an)
}

// dstOverlap reports whether task t's destination overlaps range
// [a, a+n) in address space as.
func (t *Task) dstOverlap(as *mem.AddrSpace, a mem.VA, n units.Bytes) bool {
	return t.DstAS == as && RangesOverlap(t.Dst, t.Len, a, n)
}

// srcOverlap reports whether task t's source overlaps range [a, a+n)
// in address space as.
func (t *Task) srcOverlap(as *mem.AddrSpace, a mem.VA, n units.Bytes) bool {
	return t.SrcAS == as && RangesOverlap(t.Src, t.Len, a, n)
}
