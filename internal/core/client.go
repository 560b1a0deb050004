package core

import (
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/units"
)

// QueueSet is one privilege level's CSH queues: a Copy Queue and Sync
// Queue the client produces into, and a Handler Queue the service
// produces into (UFUNC delegation, §4.1).
type QueueSet struct {
	Copy *Ring
	Sync *Ring
	// handlers is the Handler Queue (service → client).
	handlers []*Handler
}

func newQueueSet(qlen int) *QueueSet {
	return &QueueSet{Copy: NewRing(qlen), Sync: NewRing(qlen)}
}

// CGroupAccount is the copier-controller state of one cgroup
// (§4.5.2): the relative share and the group's consumed copy length.
type CGroupAccount struct {
	Name   string
	Shares int64
	// vruntime is copy length scaled by 1/shares, CFS-style.
	vruntime float64
	clients  []*Client
}

// Client is one Copier client: a user process or an OS service with a
// standalone context (§3.2). Each client owns paired user-mode and
// kernel-mode queue sets (§4.2.1).
type Client struct {
	ID   int
	Name string

	// Node is the NUMA node the client is homed on (NewClientOn);
	// always 0 on the flat machine. The sharded service assigns the
	// client to that node's threads and prefers that node's DMA
	// engine.
	Node int

	// UAS is the client's user address space; KAS the kernel address
	// space used by its k-mode submissions.
	UAS, KAS *mem.AddrSpace

	U, K *QueueSet

	// uRings are the client's per-core user submit rings (shard.go).
	// Ring 0 is the user Copy Queue U.Copy, the one barriers
	// snapshot; EnableShards appends rings 1.., which carry no
	// barriers and drain after it in core order.
	uRings []*Ring

	// Group is the cgroup the client is accounted to.
	Group *CGroupAccount

	// Progress broadcasts whenever the service updates any of the
	// client's descriptors or handler queues; csync waiters and
	// handler pollers (busy-)wait on it.
	Progress *sim.Signal

	svc *Service

	// pending is the merged, order-indexed list of admitted copy
	// tasks not yet executed (§4.2: order tracking).
	pending []*Task
	// nextOrder stamps admission order across both queue sets.
	nextOrder uint64
	// uAdmitted counts user Copy-Queue (ring 0) tasks admitted,
	// compared against barrier positions.
	uAdmitted uint64
	// uCap, when uCapSet, caps user admissions while a syscall window
	// is open (trap barrier seen, return barrier not yet).
	uCap    uint64
	uCapSet bool

	// vruntime is the CFS key: total copy length served, scaled by
	// the group share at service time (§4.5.3).
	vruntime float64
	// TotalCopied is raw bytes the service copied for this client.
	TotalCopied int64

	// backlogBytes tracks admitted-but-unexecuted copy bytes.
	backlogBytes int64

	// popBuf / uPopBuf are the PopN scratches for the batched admit
	// drain. The user rings get their own buffer because barrier
	// handling drains ring 0 from inside an iteration over popBuf.
	popBuf  [drainBatch]*Task
	uPopBuf [drainBatch]*Task

	// Dispatch-path scratch, reused round over round so the steady
	// state allocates nothing. Per-client (not per-service) because a
	// dispatcher round yields (ctx.Exec) with these buffers live, and
	// during a yield other service threads may be mid-round on other
	// clients; a given client is only ever served by the one thread
	// that holds it (Service.claim).
	batchBuf []*Task
	reqBuf   []execReq
	chunkBuf []chunk
	partsBuf []srcPart
	dmaMark  []bool
	pendBuf  []sim.Time
	engBuf   []int

	// held is set while a service thread works on the client
	// (Service.claim); passed, when another thread found it held.
	held   bool
	passed bool

	// dying is set by Service.KillClient; the next service sweep runs
	// the teardown protocol and then sets closed.
	dying  bool
	closed bool
}

// Closed reports whether the client has been unregistered (explicitly
// or by death teardown).
func (c *Client) Closed() bool { return c.closed }

// drainBatch is the admit drain width: up to this many tasks come out
// of a Copy Queue per tail update.
const drainBatch = 16

// popCost is the service-side cost of one batched drain of n tasks:
// the tail update is paid once, each further slot only pays its
// decode.
func popCost(n int) sim.Time {
	return sim.Time(cycles.TaskPop + (n-1)*cycles.TaskPopBatch)
}

// queues returns the user or kernel queue set.
func (c *Client) queues(kmode bool) *QueueSet {
	if kmode {
		return c.K
	}
	return c.U
}

// SubmitCopy enqueues a Copy Task on the client's user or kernel Copy
// Queue, attaching a Descriptor if the task has none. The caller
// charges submission cycles (libcopier does this). Returns false if
// the ring is full.
func (c *Client) SubmitCopy(t *Task, kmode bool) bool {
	if t.Desc == nil {
		t.Desc = NewDescriptor(t.Dst, t.Len, t.SegSize)
	}
	return c.pushCopy(c.queues(kmode).Copy, t, kmode)
}

// pushCopy stamps a Copy Task for this client and pushes it onto r,
// returning false if r is full.
//
//copier:noalloc
func (c *Client) pushCopy(r *Ring, t *Task, kmode bool) bool {
	t.Client = c
	t.KMode = kmode
	t.Kind = KindCopy
	if t.ID == 0 {
		c.svc.nextTaskID++
		t.ID = c.svc.nextTaskID
	}
	if t.SegSize <= 0 {
		t.SegSize = DefaultSegSize
	}
	if !r.Push(t) {
		return false
	}
	c.svc.env.Recorder().At(obs.EvTaskSubmit, int64(c.svc.now()), c.Name, int64(t.ID), int64(t.Len))
	c.svc.doorbell(c)
	return true
}

// SubmitBarrier enqueues a Barrier Task on the kernel Copy Queue,
// snapshotting the user Copy Queue position (§4.2.1). ret marks the
// return-side barrier.
func (c *Client) SubmitBarrier(ret bool) {
	t := &Task{
		Kind:   KindBarrier,
		Client: c,
		KMode:  true,
		UPos:   c.U.Copy.AcquirePos(),
		Return: ret,
	}
	if !c.K.Copy.Push(t) {
		// A full kernel ring would stall the syscall path; the
		// simulated rings are sized to make this unreachable.
		panic("core: kernel copy ring full on barrier")
	}
	c.svc.doorbell(c)
}

// SubmitSync enqueues a Sync Task (task promotion) for [addr,
// addr+n) on the chosen queue set.
func (c *Client) SubmitSync(addr mem.VA, n units.Bytes, kmode bool) bool {
	return c.pushSync(&Task{Kind: KindSync, KMode: kmode, Addr: addr, SyncLen: n})
}

// SubmitAbort enqueues an abort Sync Task explicitly discarding
// still-queued Copy Tasks whose destination intersects [addr, addr+n)
// (§4.4).
func (c *Client) SubmitAbort(addr mem.VA, n units.Bytes, kmode bool) bool {
	return c.pushSync(&Task{Kind: KindAbort, KMode: kmode, Addr: addr, SyncLen: n})
}

// SubmitAbortDesc enqueues an abort targeting exactly the pending
// Copy Task bound to desc, regardless of later tasks reusing the same
// destination buffer.
func (c *Client) SubmitAbortDesc(desc *Descriptor, kmode bool) bool {
	return c.pushSync(&Task{Kind: KindAbort, KMode: kmode, AbortDesc: desc})
}

// pushSync pushes a Sync or abort task onto the Sync Queue of its
// KMode's queue set, returning false if the ring is full.
func (c *Client) pushSync(t *Task) bool {
	t.Client = c
	if !c.queues(t.KMode).Sync.Push(t) {
		return false
	}
	c.svc.doorbell(c)
	return true
}

// PopHandler removes the oldest queued UFUNC, or nil.
func (c *Client) PopHandler() *Handler {
	if len(c.U.handlers) == 0 {
		return nil
	}
	h := c.U.handlers[0]
	c.U.handlers = c.U.handlers[1:]
	return h
}

// HandlerQueueLen reports queued UFUNC count.
func (c *Client) HandlerQueueLen() int { return len(c.U.handlers) }

// admit drains the client's Copy Queues into the merged pending list,
// respecting cross-queue barriers: a trap barrier caps user
// admissions at its snapshot position until the matching return
// barrier lifts the cap, ordering the syscall's kernel tasks before
// concurrent user submissions (Fig. 6-a).
func (c *Client) admit(ctx Ctx, svc *Service) {
	for {
		progressed := false
		// Kernel queue first — kernel tasks are prioritized in the
		// undetermined-concurrency case (§4.2.1). Drained in batches;
		// barriers are handled in buffer order, so the interleaving
		// with capped user admissions is identical to a one-at-a-time
		// drain.
		for {
			n := c.K.Copy.PopN(c.popBuf[:])
			if n == 0 {
				break
			}
			ctx.Exec(popCost(n))
			progressed = true
			for i := 0; i < n; i++ {
				t := c.popBuf[i]
				c.popBuf[i] = nil
				if t.Kind == KindBarrier {
					if t.Return {
						// Admit user tasks submitted before the return
						// position, then lift the cap.
						c.admitUserUpTo(ctx, t.UPos)
						c.uCapSet = false
					} else {
						c.admitUserUpTo(ctx, t.UPos)
						c.uCap = t.UPos
						c.uCapSet = true
					}
					continue
				}
				c.admitTask(t, svc)
			}
		}
		// User rings: ring 0 up to the cap, then rings 1.. in core
		// order, uncapped: they carry no barriers (shard.go).
		limit := noCap
		if c.uCapSet {
			limit = c.uCap
		}
		if c.admitUserUpTo(ctx, limit) {
			progressed = true
		}
		for _, r := range c.uRings[1:] {
			if c.admitRing(ctx, r, noCap) > 0 {
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// noCap is the admission limit of an uncapped user ring.
const noCap = ^uint64(0)

// admitUserUpTo admits ring-0 tasks while fewer than pos have been
// admitted and the ring has published tasks, reporting whether it
// admitted any.
func (c *Client) admitUserUpTo(ctx Ctx, pos uint64) bool {
	// uAdmitted may already be past pos: ring 0 can drain beyond a
	// barrier's snapshot before the barrier is popped.
	if c.uAdmitted >= pos {
		return false
	}
	n := c.admitRing(ctx, c.uRings[0], pos-c.uAdmitted)
	c.uAdmitted += n
	return n > 0
}

// admitRing admits up to limit published tasks from user ring r into
// the pending list in PopN batches and returns how many it admitted.
func (c *Client) admitRing(ctx Ctx, r *Ring, limit uint64) uint64 {
	var admitted uint64
	for admitted < limit {
		lim := drainBatch
		if room := limit - admitted; room < uint64(lim) {
			lim = int(room)
		}
		n := r.PopN(c.uPopBuf[:lim])
		if n == 0 {
			break
		}
		ctx.Exec(popCost(n))
		admitted += uint64(n)
		for i := 0; i < n; i++ {
			c.admitTask(c.uPopBuf[i], c.svc)
			c.uPopBuf[i] = nil
		}
	}
	return admitted
}

func (c *Client) admitTask(t *Task, svc *Service) {
	if svc.rejectAdmission(c, t) {
		return
	}
	t.orderIdx = c.nextOrder
	c.nextOrder++
	t.enqueuedAt = svc.now()
	c.pending = append(c.pending, t)
	c.backlogBytes += int64(t.Len)
	svc.backlogBytes += int64(t.Len)
	svc.env.Recorder().At(obs.EvQueueDepthSample, int64(t.enqueuedAt), c.Name, int64(c.ID), int64(len(c.pending)))
}

// removeExecuted compacts the pending list, dropping executed and
// aborted tasks.
func (c *Client) removeExecuted() {
	out := c.pending[:0]
	for _, t := range c.pending {
		if !t.executed && !t.aborted {
			out = append(out, t)
		}
	}
	c.pending = out
}
