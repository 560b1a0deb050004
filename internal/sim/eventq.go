package sim

// The event queue is the hottest structure in the simulator: every
// Wait, Broadcast, DMA completion and doorbell passes through it. It
// is a typed index-based 4-ary min-heap over an arena of event slots
// with a free list, so the steady state performs no allocation: slots
// are recycled, the heap holds int32 indices, and comparisons read the
// arena directly instead of bouncing through container/heap's
// interface boxing. 4-ary beats binary here because pops dominate and
// the shallower tree trades cheap extra comparisons (same cache line)
// for fewer sift levels.
//
// Ordering is the simulator's determinism contract: strict (at, seq)
// lexicographic order, seq being the monotone schedule counter, so
// events at the same instant fire in scheduling order exactly as the
// container/heap implementation did.

// event is one scheduled callback in the arena.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
	// canceled events stay in the heap but are skipped when popped.
	canceled bool
	// idle tags a Spin step's event whose step declared an idle
	// stretch: the declaring proc's index in Env.idlers, plus one.
	idle int32
}

// eventQueue is the 4-ary index heap plus slot arena and free list.
type eventQueue struct {
	heap  []int32 // heap[i] indexes arena; ordered by (at, seq)
	arena []event
	free  []int32 // recycled arena slots
}

func (q *eventQueue) len() int    { return len(q.heap) }
func (q *eventQueue) empty() bool { return len(q.heap) == 0 }

// peekAt returns the earliest event's time. Caller checks empty().
func (q *eventQueue) peekAt() Time { return q.arena[q.heap[0]].at }

// less orders two arena slots by (at, seq).
func (q *eventQueue) less(a, b int32) bool {
	ea, eb := &q.arena[a], &q.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// schedule fills a recycled (or fresh) slot and pushes it, returning
// the slot index for cancellation handles.
//
//copier:noalloc
func (q *eventQueue) schedule(at Time, seq uint64, fn func()) int32 {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.arena = append(q.arena, event{})
		slot = int32(len(q.arena) - 1)
	}
	q.arena[slot] = event{at: at, seq: seq, fn: fn}
	q.heap = append(q.heap, slot)
	q.siftUp(len(q.heap) - 1)
	return slot
}

// pop removes the earliest event, recycles its slot and returns its
// fields. Caller checks empty(). The slot is released before fn runs,
// which is safe: handles identify events by seq, not by slot, so a
// reused slot cannot be canceled through a stale handle.
//
//copier:noalloc
func (q *eventQueue) pop() (at Time, fn func(), canceled bool) {
	top := q.heap[0]
	ev := &q.arena[top]
	at, fn, canceled = ev.at, ev.fn, ev.canceled
	ev.fn = nil // release the closure to the GC
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
	q.free = append(q.free, top)
	return at, fn, canceled
}

// detach removes the earliest event from the heap but keeps its slot,
// for attach to put back. Caller checks empty().
func (q *eventQueue) detach() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
}

// attach pushes a detached slot back, at its event's (at, seq).
func (q *eventQueue) attach(slot int32) {
	q.heap = append(q.heap, slot)
	q.siftUp(len(q.heap) - 1)
}

func (q *eventQueue) siftUp(i int) {
	h := q.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !q.less(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (q *eventQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	x := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Minimum of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q.less(h[j], h[m]) {
				m = j
			}
		}
		if !q.less(h[m], x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
