// Package core implements Copier, the paper's primary contribution: a
// first-class OS service for coordinated asynchronous memory copy.
//
// Clients interact with the service through per-client CSH queues
// (Copy / Sync / Handler, §4.1) mapped into their address spaces. The
// service runs on dedicated threads, merges user- and kernel-mode
// submissions with cross-queue barriers (§4.2.1), tracks data
// dependencies (§4.2.2), dispatches subtasks across AVX and DMA with
// the piggyback mechanism (§4.3), absorbs redundant copies (§4.4), and
// schedules clients fairly by copy length under a cgroup controller
// (§4.5).
//
// The package depends only on the simulation substrate (sim, mem, hw,
// cycles); the OS integration lives in internal/kernel and the client
// library in internal/libcopier.
package core

import "fmt"

// Ring is the lock-free ring buffer underlying the CSH queues
// (§5.1 "Multithreading and concurrency"): producers acquire a slot by
// advancing the head (fetch-and-add in the real system), fill the
// task, then set the slot's valid bit; the single consumer (a Copier
// thread) takes valid tasks from the tail. Task order follows acquire
// order. A slot is the task pointer itself, and nil is the cleared
// valid bit, so a slot costs 8 bytes.
//
// Inside the discrete-event simulation only one process runs at a
// time, so plain fields model the protocol faithfully; the natively
// concurrent implementation of the same protocol lives in
// internal/acopy and is exercised with real goroutines there.
type Ring struct {
	slots []*Task
	mask  uint64
	head  uint64 // acquire counter (next free slot)
	tail  uint64 // consume counter
}

// NewRing creates a ring with capacity rounded up to a power of two.
func NewRing(capacity int) *Ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]*Task, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Len returns the number of acquired-but-unconsumed slots (including
// slots acquired but not yet published).
func (r *Ring) Len() int { return int(r.head - r.tail) }

// Full reports whether no slot can be acquired.
func (r *Ring) Full() bool { return r.head-r.tail >= uint64(len(r.slots)) }

// AcquirePos returns the producer position (total tasks ever acquired)
// — barrier tasks snapshot this (§4.2.1: "recording current position
// of user Copy Queue").
func (r *Ring) AcquirePos() uint64 { return r.head }

// badSlot reports a valid-bit protocol violation out of line, keeping
// the fmt boxing of the (never-taken) panic branch off the noalloc
// producer path.
//
//go:noinline
func badSlot(what string, idx uint64) {
	panic(fmt.Sprintf("core: %s slot %d", what, idx))
}

// Acquire advances the head (the fetch-and-add of §5.1) and returns
// the acquired position, without publishing anything: the slot stays
// invalid — and blocks consumption past it — until Publish sets the
// valid bit. Returns false if the ring is full.
//
//copier:noalloc
func (r *Ring) Acquire() (uint64, bool) {
	if r.Full() {
		return 0, false
	}
	pos := r.head
	r.head++
	if r.slots[pos&r.mask] != nil {
		badSlot("reuse of still-valid", pos&r.mask)
	}
	return pos, true
}

// Publish fills the slot acquired at pos and sets its valid bit,
// making it (and any later already-published slots) consumable. A nil
// task would leave the bit cleared, so it panics.
//
//copier:noalloc
func (r *Ring) Publish(pos uint64, t *Task) {
	s := &r.slots[pos&r.mask]
	if *s != nil {
		badSlot("publish to already-valid", pos&r.mask)
	}
	if t == nil {
		badSlot("publish of a nil task to", pos&r.mask)
	}
	*s = t
}

// Push acquires a slot, fills it and publishes it in one step,
// returning false if the ring is full.
func (r *Ring) Push(t *Task) bool {
	pos, ok := r.Acquire()
	if !ok {
		return false
	}
	r.Publish(pos, t)
	return true
}

// Pop consumes the oldest published task, or returns nil if the tail
// slot is empty or not yet published.
//
//copier:noalloc
func (r *Ring) Pop() *Task {
	if r.tail == r.head {
		return nil
	}
	s := &r.slots[r.tail&r.mask]
	t := *s
	if t == nil {
		return nil
	}
	*s = nil
	r.tail++
	return t
}

// PopN drains up to len(buf) published tasks into buf with a single
// tail update, stopping early at the first unpublished (acquired but
// not yet valid) slot. This is the batched form of the §5.1 consume
// protocol: the consumer reads forward over valid slots and moves the
// tail once for the whole batch, so the per-task synchronization cost
// is amortized across the drain. Returns the number of tasks drained.
//
//copier:noalloc
func (r *Ring) PopN(buf []*Task) int {
	n := 0
	for n < len(buf) {
		pos := r.tail + uint64(n)
		if pos == r.head {
			break
		}
		s := &r.slots[pos&r.mask]
		if *s == nil {
			break
		}
		buf[n] = *s
		*s = nil
		n++
	}
	r.tail += uint64(n)
	return n
}

// Peek returns the oldest published task without consuming it.
func (r *Ring) Peek() *Task {
	if r.tail == r.head {
		return nil
	}
	return r.slots[r.tail&r.mask]
}
