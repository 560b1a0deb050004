package sim

import "math/bits"

// Idle stretches. A Spin loop that polls for work spends most of its
// steps finding none: each such step charges a wait, bumps a counter
// and schedules the next. When a step declares (DeclareIdle) what its
// next steps will do, the event loop does their accounting in one call
// instead of popping them, wherever nothing else can happen first. It
// does so at two sites. Before each pop, Run moves every valid stretch
// past its steps that precede the first other event, Run's until and
// every stretch's first uncovered step (skipIdle). And a Proc.Wait whose
// end no other event precedes skips the stretches' steps due by then
// and continues without a switch (skipWait).
//
// Exactness rests on event order. Steps pop in (at, seq) order, and a
// step's next event takes the next seq when the step runs, so:
//
//   - A stretch's pending event (step 1) is in the heap with a known
//     seq. Every later step j would be scheduled by step j-1, after
//     every event in the heap now, so it loses every tie with one.
//   - Two later steps at one instant were scheduled in the order their
//     previous steps ran: compare those, walking both chains back until
//     the instants differ or one chain reaches its pending event.
//
// So the first event that is not a skippable step is known exactly,
// every step before it is skipped, and the moved pending events take
// fresh seqs in the order their last skipped steps would have
// scheduled them. Every other event then runs at the same instant, in
// the same order, on the same state.

// IdleStretch is what a Spin step declares about the steps after the
// wait it returns (DeclareIdle): while OK holds, those steps change
// nothing outside the loop, and Skip does their accounting.
type IdleStretch struct {
	// Waits are the waits the covered steps return, alternating: the
	// first covered step returns Waits[0], the next Waits[1], and so
	// on. Both must be positive.
	Waits [2]Time
	// N bounds how many steps the stretch covers.
	N int64
	// Before bounds the stretch in time: no step at or after Before is
	// covered.
	Before Time
	// OK reports whether the covered steps still change nothing
	// outside the loop. It is called where the stretch is used, never
	// cached: a stretch whose OK fails is dropped, and its next step
	// runs.
	OK func() bool
	// Skip does the first k covered steps' accounting and leaves the
	// loop where the k-th step left it. It runs at the k-th step's
	// instant and must only account: no scheduling, no broadcast.
	Skip func(k int64)
}

// DeclareIdle declares, from a Spin step about to return its wait,
// that the steps after that wait form the idle stretch st. A declared
// step's wait is always an event, never the switch-free clock move, so
// that the event loop can skip the stretch. A declaration made by a
// step that reports done is ignored. DeclareIdle panics outside a Spin
// step.
//
//copier:noalloc
func (e *Env) DeclareIdle(st IdleStretch) {
	p := e.stepping
	if p == nil {
		declareOutside()
	}
	if st.Waits[0] <= 0 || st.Waits[1] <= 0 {
		badDelay(p.name, min(st.Waits[0], st.Waits[1]))
	}
	p.stretch, p.declared = st, true
}

// declareOutside panics out of line, like badDelay.
//
//go:noinline
func declareOutside() { panic("sim: DeclareIdle outside a Spin step") }

// idleRun is one stretch during a skip: its owner, its pending event's
// slot and (at, seq), and how many steps it covers and skips.
type idleRun struct {
	p    *Proc
	slot int32
	at   Time
	seq  uint64
	c, k int64
}

// step returns the instant of the run's j-th step (j ≥ 1), saturating
// at Infinity.
func (r *idleRun) step(j int64) Time {
	if j == 1 {
		return r.at
	}
	w := r.p.stretch.Waits
	m := uint64(j - 1)
	hi, off := bits.Mul64(m/2, uint64(w[0]+w[1]))
	room := uint64(Infinity - r.at)
	if hi != 0 || off > room || room-off < m%2*uint64(w[0]) {
		return Infinity
	}
	return r.at + Time(off+m%2*uint64(w[0]))
}

// count returns how many of the run's steps fall at or before x, or
// strictly before x when strict is set.
func (r *idleRun) count(x Time, strict bool) int64 {
	if x < r.at {
		return 0
	}
	w := r.p.stretch.Waits
	span, period := x-r.at, w[0]+w[1]
	var q Time
	if span >= period {
		q = span / period
	}
	n, last := 2*int64(q)+1, q*period
	if span-last >= w[0] {
		n, last = n+1, last+w[0]
	}
	if strict && last == span {
		n--
	}
	return n
}

// wait returns the wait the run's j-th step returns.
func (r *idleRun) wait(j int64) Time { return r.p.stretch.Waits[(j-1)%2] }

// precedes reports whether step j of a pops before step l of b. A
// run's first step is its pending event; later steps are scheduled by
// the steps before them, after every event in the heap now.
func precedes(a *idleRun, j int64, b *idleRun, l int64) bool {
	for {
		ta, tb := a.step(j), b.step(l)
		switch {
		case ta != tb:
			return ta < tb
		case j == 1 && l == 1:
			return a.seq < b.seq
		case j == 1 || l == 1:
			return j == 1
		}
		// Both steps are scheduled later, at one instant: they pop in
		// the order their previous steps ran. If the two chains' last
		// two waits agree, the alternating waits agree all the way
		// back, so the chains tie until one reaches its pending event.
		if j > 2 && l > 2 && a.wait(j-1) == b.wait(l-1) && a.wait(j-2) == b.wait(l-2) {
			d := min(j, l) - 1
			j, l = j-d, l-d
			continue
		}
		j, l = j-1, l-1
	}
}

// lift takes every valid stretch whose pending event is at the heap
// top and due by limit off the heap, into e.runs. A stretch whose OK
// fails is dropped where it stands, and its event stays as any other.
func (e *Env) lift(limit Time) {
	q := &e.events
	for !q.empty() {
		ev := &q.arena[q.heap[0]]
		if ev.idle == 0 || ev.at > limit {
			return
		}
		r := idleRun{p: e.idlers[ev.idle-1], slot: q.heap[0], at: ev.at, seq: ev.seq}
		if r.c = r.p.stretch.N; !r.p.stretch.OK() {
			e.drop(r.p, ev)
			return
		}
		q.detach()
		e.runs = append(e.runs, r)
	}
}

// tagIdle marks p's pending event, in slot, as its declared stretch's,
// unless the stretch covers no step. From here on the stretch's N is
// the number of steps it covers from its pending event on.
func (e *Env) tagIdle(p *Proc, slot int32) {
	ev := &e.events.arena[slot]
	r := idleRun{p: p, at: ev.at}
	st := &p.stretch
	if st.N = min(st.N, r.count(st.Before, true)); st.N <= 0 {
		p.declared = false
		return
	}
	if p.idleTag == 0 {
		e.idlers = append(e.idlers, p)
		p.idleTag = int32(len(e.idlers))
	}
	ev.idle = p.idleTag
	e.nidle++
}

// drop ends p's declaration: its pending event ev runs its next step.
func (e *Env) drop(p *Proc, ev *event) {
	ev.idle = 0
	p.declared = false
	e.nidle--
}

// settle moves each lifted run's pending event past the k steps it
// skips, after their accounting, and puts every run back on the heap:
// moved ones with fresh seqs, in the order their last skipped steps
// would have scheduled them, the others as they were. It returns the
// instant of the last skipped step (0 if none).
func (e *Env) settle() Time {
	runs := e.runs
	// Insertion sort: runs that skip nothing first (their order is
	// moot: they keep their seqs), then moved runs by their last
	// skipped step.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runBefore(&runs[j], &runs[j-1]); j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	var last Time
	q := &e.events
	for i := range runs {
		r := &runs[i]
		ev := &q.arena[r.slot]
		if r.k > 0 {
			st := &r.p.stretch
			e.now = r.step(r.k)
			last = max(last, e.now)
			st.Skip(r.k)
			ev.at, ev.seq = r.step(r.k+1), e.seq
			e.seq++
			if r.k%2 == 1 {
				st.Waits[0], st.Waits[1] = st.Waits[1], st.Waits[0]
			}
			st.N -= r.k
			if r.k == r.c {
				e.drop(r.p, ev)
			}
		}
		q.attach(r.slot)
	}
	e.runs = runs[:0]
	return last
}

// runBefore orders runs for settle: unmoved runs first, then moved
// runs by their last skipped step.
func runBefore(a, b *idleRun) bool {
	if a.k == 0 || b.k == 0 {
		return a.k == 0 && b.k != 0
	}
	return precedes(a, a.k, b, b.k)
}

// skipIdle is Run's skip site: it moves every valid stretch at the
// heap top past its steps that precede the first other event, every
// stretch's first uncovered step and until.
func (e *Env) skipIdle(until Time) {
	e.lift(until)
	runs := e.runs
	if len(runs) == 0 {
		return
	}
	// The window ends at the first event that is not a skippable step:
	// the first other event or a stretch's first uncovered step.
	var end *idleRun
	var endJ int64
	var other idleRun
	if q := &e.events; !q.empty() {
		ev := &q.arena[q.heap[0]]
		other = idleRun{at: ev.at, seq: ev.seq}
		end, endJ = &other, 1
	}
	for i := range runs {
		r := &runs[i]
		if end == nil || precedes(r, r.c+1, end, endJ) {
			end, endJ = r, r.c+1
		}
	}
	endAt := end.step(endJ)
	for i := range runs {
		r := &runs[i]
		k := r.c
		if r.step(k) >= endAt {
			k = r.count(endAt, true)
			if r.step(k+1) == endAt && precedes(r, k+1, end, endJ) {
				k++
			}
		}
		if k > 0 && r.step(k) > until {
			k = r.count(until, false)
		}
		r.k = k
	}
	e.now = max(e.now, e.settle())
}

// skipWait is Proc.Wait's skip site, for a wait of d whose wake would
// take the next seq: if the running loop reaches its end and every
// event due by then is a valid idle step, it does their accounting,
// moves the clock to the end and reports true. The wake would pop
// after every pending event due at the end and before every later step
// scheduled for it, so those are accounted first and these are not.
// Otherwise it changes nothing.
func (e *Env) skipWait(d Time) bool {
	if d > e.limit-e.now || e.events.arena[e.events.heap[0]].idle == 0 {
		return false
	}
	end := e.now + d
	e.lift(end)
	ok := e.events.empty() || e.events.peekAt() > end
	for i := range e.runs {
		ok = ok && e.runs[i].step(e.runs[i].c+1) >= end // no uncovered step before the wake
	}
	if ok {
		for i := range e.runs {
			r := &e.runs[i]
			r.k = max(r.count(end, true), 1) // a pending event at end pops first
		}
	}
	e.settle()
	if ok {
		e.now = end
	}
	return ok
}
