// Per-core user submit rings. A fleet client whose threads submit
// from many cores must not funnel every submission through one ring
// head, so a client has one user submit ring per core (Client.uRings)
// and the service drains them in fixed core order during admission.
// Ring 0 is the user Copy Queue of the paired U/K queue sets
// (client.go): SubmitCopy(t, false) pushes there too, and it is the
// ring barriers snapshot and trap barriers cap. EnableShards adds
// rings 1.., which carry user-mode Copy Tasks only — no barriers, no
// sync tasks — and drain after ring 0, ring 1 before ring 2 and so
// on. They are meant for standalone-context clients (the fleet
// workload) whose submissions never interleave with a syscall window,
// so admission order across rings only has to be deterministic, not
// program-ordered.

package core

// EnableShards gives the client one user submit ring per core, each
// sized like the client's other CSH rings: ring 0 is the user Copy
// Queue, and rings 1..cores-1 are added.
func (c *Client) EnableShards(cores int) {
	for len(c.uRings) < cores {
		c.uRings = append(c.uRings, NewRing(c.svc.cfg.QueueLen))
	}
}

// SubmitCopyOn enqueues a user-mode Copy Task on the submitting
// core's ring. Stamping matches SubmitCopy, except the caller must
// have attached the Descriptor already: creating one here would put
// an allocation on the per-submission fast path. Returns false when
// the core's ring is full (open-loop callers count the drop and move
// on — that is the shed signal).
//
//copier:noalloc
func (c *Client) SubmitCopyOn(core int, t *Task) bool {
	if t.Desc == nil {
		missingDesc()
	}
	return c.pushCopy(c.uRings[core], t, false)
}

// missingDesc keeps the panic's string allocation out of
// SubmitCopyOn's escape analysis (same pattern as Ring.badSlot).
//
//go:noinline
func missingDesc() {
	panic("core: SubmitCopyOn task without a Descriptor")
}
