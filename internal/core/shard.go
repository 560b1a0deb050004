// Per-core CSH submit sharding. A fleet client whose threads submit
// from many cores must not funnel every submission through one ring
// head: the QueueArray gives the client one submit ring per core, and
// the service drains them in fixed core order during admission. This
// is the per-core queue-array layout of the sharded service; the
// legacy paired U/K queue sets (client.go) remain the syscall-coupled
// path and keep their barrier semantics.
//
// Shard rings carry user-mode Copy Tasks only — no barriers, no sync
// tasks. They are meant for standalone-context clients (the fleet
// workload) whose submissions never interleave with a syscall window,
// so admission order across rings only has to be deterministic, not
// program-ordered: ring 0 drains before ring 1, and so on.

package core

import (
	"fmt"

	"copier/internal/obs"
)

// QueueArray is a fixed array of per-core submit rings.
type QueueArray struct {
	rings []*Ring
}

// NewQueueArray creates cores rings of qlen slots each.
func NewQueueArray(cores, qlen int) *QueueArray {
	if cores <= 0 {
		panic(fmt.Sprintf("core: QueueArray with %d cores", cores))
	}
	qa := &QueueArray{rings: make([]*Ring, cores)}
	for i := range qa.rings {
		qa.rings[i] = NewRing(qlen)
	}
	return qa
}

// Cores returns the number of per-core rings.
func (qa *QueueArray) Cores() int { return len(qa.rings) }

// Ring returns core's submit ring.
func (qa *QueueArray) Ring(core int) *Ring { return qa.rings[core] }

// Len sums the occupancy of all rings.
func (qa *QueueArray) Len() int {
	n := 0
	for _, r := range qa.rings {
		n += r.Len()
	}
	return n
}

// EnableShards equips the client with a per-core submit array of
// cores rings, each sized like the client's other CSH rings.
func (c *Client) EnableShards(cores int) {
	c.Shards = NewQueueArray(cores, c.svc.cfg.QueueLen)
}

// SubmitCopyOn enqueues a user-mode Copy Task on the submitting
// core's shard ring. Stamping matches SubmitCopy, except the caller
// must have attached the Descriptor already: creating one here would
// put an allocation on the per-submission fast path. Returns false
// when the core's ring is full (open-loop callers count the drop and
// move on — that is the shed signal).
//
//copier:noalloc
func (c *Client) SubmitCopyOn(core int, t *Task) bool {
	if t.Desc == nil {
		missingDesc()
	}
	t.Client = c
	t.KMode = false
	t.Kind = KindCopy
	if t.ID == 0 {
		c.svc.nextTaskID++
		t.ID = c.svc.nextTaskID
	}
	if t.SegSize <= 0 {
		t.SegSize = DefaultSegSize
	}
	if !c.Shards.rings[core].Push(t) {
		return false
	}
	c.svc.env.Recorder().At(obs.EvTaskSubmit, int64(c.svc.now()), c.Name, int64(t.ID), int64(t.Len))
	c.svc.doorbell(c)
	return true
}

// missingDesc keeps the panic's string allocation out of
// SubmitCopyOn's escape analysis (same pattern as Ring.badSlot).
//
//go:noinline
func missingDesc() {
	panic("core: SubmitCopyOn task without a Descriptor")
}

// admitShards drains the per-core rings into the merged pending list,
// ring 0 first. Shard tasks carry no barriers, so the drain is a
// plain batched pop.
func (c *Client) admitShards(ctx Ctx, svc *Service) bool {
	progressed := false
	for _, r := range c.Shards.rings {
		for {
			n := r.PopN(c.popBuf[:])
			if n == 0 {
				break
			}
			ctx.Exec(popCost(n))
			progressed = true
			for i := 0; i < n; i++ {
				c.admitTask(c.popBuf[i], svc)
				c.popBuf[i] = nil
			}
		}
	}
	return progressed
}
