package core

import (
	"copier/internal/cycles"
	"copier/internal/hw"
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

	// Shards, when enabled (EnableShards), adds a per-core submit
	// ring array in front of the legacy paired queue sets — the CSH
	// layout for many-client fleets where submitters on different
	// cores must not contend on one ring (shard.go).
	Shards *QueueArray

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
	// uAdmitted counts user Copy-Queue tasks admitted, compared
	// against barrier positions.
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
	// drain. The user queue gets its own buffer because barrier
	// handling drains it from inside an iteration over popBuf.
	popBuf  [drainBatch]*Task
	uPopBuf [drainBatch]*Task

	// Dispatch-path scratch, reused round over round so the steady
	// state allocates nothing. Per-client (not per-service) because a
	// dispatcher round yields (ctx.Exec) with these buffers live, and
	// during a yield other service threads may be mid-round on other
	// clients; a given client is only ever served by one thread.
	batchBuf []*Task
	reqBuf   []execReq
	chunkBuf []chunk
	partsBuf []srcPart
	dmaMark  []bool
	pairBuf  [][2]hw.FrameRange
	pendBuf  []sim.Time
	engBuf   []int

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

// SubmitCopy enqueues a Copy Task on the client's user or kernel Copy
// Queue. The caller charges submission cycles (libcopier does this).
// Returns false if the ring is full.
func (c *Client) SubmitCopy(t *Task, kmode bool) bool {
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
	if t.Desc == nil {
		t.Desc = NewDescriptor(t.Dst, t.Len, t.SegSize)
	}
	q := c.U
	if kmode {
		q = c.K
	}
	if !q.Copy.Push(t) {
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
	t := &Task{Kind: KindSync, Client: c, KMode: kmode, Addr: addr, SyncLen: n}
	q := c.U
	if kmode {
		q = c.K
	}
	if !q.Sync.Push(t) {
		return false
	}
	c.svc.doorbell(c)
	return true
}

// SubmitAbort enqueues an abort Sync Task explicitly discarding
// still-queued Copy Tasks whose destination intersects [addr, addr+n)
// (§4.4).
func (c *Client) SubmitAbort(addr mem.VA, n units.Bytes, kmode bool) bool {
	t := &Task{Kind: KindAbort, Client: c, KMode: kmode, Addr: addr, SyncLen: n}
	q := c.U
	if kmode {
		q = c.K
	}
	if !q.Sync.Push(t) {
		return false
	}
	c.svc.doorbell(c)
	return true
}

// SubmitAbortDesc enqueues an abort targeting exactly the pending
// Copy Task bound to desc, regardless of later tasks reusing the same
// destination buffer.
func (c *Client) SubmitAbortDesc(desc *Descriptor, kmode bool) bool {
	t := &Task{Kind: KindAbort, Client: c, KMode: kmode, AbortDesc: desc}
	q := c.U
	if kmode {
		q = c.K
	}
	if !q.Sync.Push(t) {
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
		// User queue up to the cap.
		for {
			lim := drainBatch
			if c.uCapSet {
				if c.uAdmitted >= c.uCap {
					break
				}
				if room := c.uCap - c.uAdmitted; room < uint64(lim) {
					lim = int(room)
				}
			}
			n := c.U.Copy.PopN(c.uPopBuf[:lim])
			if n == 0 {
				break
			}
			ctx.Exec(popCost(n))
			progressed = true
			c.uAdmitted += uint64(n)
			for i := 0; i < n; i++ {
				c.admitTask(c.uPopBuf[i], svc)
				c.uPopBuf[i] = nil
			}
		}
		// Per-core shard rings last: they carry no barriers, so their
		// tasks order after anything the paired queues admitted this
		// pass (shard.go).
		if c.Shards != nil && c.admitShards(ctx, svc) {
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// admitUserUpTo admits user tasks while fewer than pos have been
// admitted and the ring has published tasks.
func (c *Client) admitUserUpTo(ctx Ctx, pos uint64) {
	for c.uAdmitted < pos {
		lim := drainBatch
		if room := pos - c.uAdmitted; room < uint64(lim) {
			lim = int(room)
		}
		n := c.U.Copy.PopN(c.uPopBuf[:lim])
		if n == 0 {
			return
		}
		ctx.Exec(popCost(n))
		c.uAdmitted += uint64(n)
		for i := 0; i < n; i++ {
			c.admitTask(c.uPopBuf[i], c.svc)
			c.uPopBuf[i] = nil
		}
	}
}

func (c *Client) admitTask(t *Task, svc *Service) {
	if t.Kind == KindCopy && svc.rejectAdmission(c, t) {
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
