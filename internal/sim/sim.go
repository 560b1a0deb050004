// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every higher layer of this repository — the simulated machine, the
// kernel, the Copier service and the application workloads — runs on top
// of this package. Time is virtual and measured in CPU cycles
// (sim.Time). Simulation processes are runtime coroutines (iter.Pull):
// the event loop switches directly into a process and the process
// switches directly back, so exactly one process runs at any instant;
// combined with a strictly ordered event heap this makes every run
// bit-for-bit reproducible.
//
// The design mirrors classic process-based simulators (SimPy, OMNeT++):
//
//   - Env owns the virtual clock and the event heap (a typed 4-ary
//     index heap with slot recycling — see eventq.go; the steady-state
//     schedule/pop cycle does not allocate).
//   - Proc is a coroutine; it advances time with Wait, or blocks on a
//     Signal until another process wakes it. A Wait whose wake
//     would be the loop's very next event just moves the clock, with
//     no switch: nothing else can run in between, so no one can tell.
//   - Env.Spin runs a process's wait loop in event context: a loop
//     whose steps need no stack costs one event per wait, not two
//     coroutine switches.
//   - Events scheduled for the same instant fire in scheduling order
//     (a monotone sequence number breaks ties), never concurrently.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"copier/internal/obs"
)

// Time is a point in virtual time, measured in CPU cycles.
type Time int64

// Infinity is a time later than any event the simulator will produce.
const Infinity Time = 1<<63 - 1

// EventHandle allows a scheduled event to be canceled before it fires.
// Handles identify events by sequence number, so a handle outliving
// its event (whose arena slot may have been recycled) cancels nothing.
type EventHandle struct {
	q    *eventQueue
	slot int32
	seq  uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (h EventHandle) Cancel() {
	if h.q == nil {
		return
	}
	if ev := &h.q.arena[h.slot]; ev.seq == h.seq {
		ev.canceled = true
	}
}

// Env is a simulation environment: a virtual clock plus an event heap.
// It is not safe for concurrent use from outside the simulation; all
// interaction happens from process bodies or between Run calls.
type Env struct {
	now     Time
	limit   Time // last instant the running Run pops at: its until
	events  eventQueue
	seq     uint64
	procs   []*Proc // all spawned, for deadlock diagnosis
	cur     *Proc   // the process running now; nil in event context
	nlive   int     // procs started and not yet finished
	running bool
	rec     *obs.Recorder
}

// OnNewEnv, when non-nil, is invoked on every environment NewEnv
// returns. The benchmark harness uses it to attach one observability
// recorder to every environment an experiment creates, however deep.
var OnNewEnv func(*Env)

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	e := &Env{}
	if OnNewEnv != nil {
		OnNewEnv(e)
	}
	return e
}

// SetRecorder attaches a typed-event recorder. A nil recorder (the
// default) disables structured recording; every emission site in the
// stack guards on the nil pointer, keeping the disabled path to one
// load and branch.
func (e *Env) SetRecorder(r *obs.Recorder) { e.rec = r }

// Recorder returns the attached recorder, or nil.
func (e *Env) Recorder() *obs.Recorder { return e.rec }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// badDelay reports a negative delay out of line: keeping the fmt
// boxing in a helper keeps the noalloc schedule/wait paths free of
// escape-analysis hits from the (never-taken) panic branch.
//
//go:noinline
func badDelay(who string, d Time) {
	panic(fmt.Sprintf("sim: %s: negative delay %d", who, d))
}

// spinOutside panics out of line, for the same reason as badDelay.
//
//go:noinline
func spinOutside() { panic("sim: Spin outside a process") }

// Schedule registers fn to run at now+d. It may be called from process
// bodies or before Run. fn runs in the event loop, not in a process
// context; it must not block.
//
//copier:noalloc
func (e *Env) Schedule(d Time, fn func()) EventHandle {
	if d < 0 {
		badDelay("Schedule", d)
	}
	seq := e.seq
	e.seq++
	slot := e.events.schedule(e.now+d, seq, fn)
	return EventHandle{q: &e.events, slot: slot, seq: seq}
}

// Proc is a simulation process (a coroutine). Exactly one Proc runs at
// a time; a Proc gives up control by calling Wait or by blocking on one
// of the synchronization primitives in this package.
type Proc struct {
	env  *Env
	name string
	// next resumes the coroutine until it yields or finishes; yieldFn,
	// valid once the body is running, switches back to whoever called
	// next.
	next    func() (struct{}, bool)
	yieldFn func(struct{}) bool
	// blockedOn is a human-readable reason set while the proc is
	// waiting on a Signal; used in deadlock reports.
	blockedOn string
	finished  bool
	started   bool
	// handoffFn is the pre-allocated Schedule target for every wake
	// path (Wait, Broadcast), and timeoutFn the one for
	// a WaitTimeout expiry, so the steady-state sleep/wake cycle
	// allocates nothing.
	handoffFn func()
	timeoutFn func()
	// step is the loop Spin runs, and spinFn the pre-bound event that
	// runs its next step after a wait that switches.
	step   func() (Time, bool)
	spinFn func()
	// timeoutEpoch is the episode the pending WaitTimeout expiry may
	// end. A proc has at most one expiry live: it is canceled when a
	// broadcast ends the episode first.
	timeoutEpoch uint64
	// waitEpoch numbers this proc's blocking episodes: bumped on entry
	// and exit of every Signal wait, so a stale waiter entry (left
	// behind by a timeout) can never match the current episode.
	waitEpoch uint64
	// sigWoken records that the current episode's signal broadcast;
	// valid only while waitEpoch identifies a live episode.
	sigWoken bool
}

// Go spawns a new process whose body is fn. The process begins running
// at the current instant (after already-scheduled events at this
// instant). fn receives its own *Proc.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		fn(p)
		p.finished = true
		e.nlive--
		e.rec.At(obs.EvProcEnd, int64(e.now), p.name, 0, 0)
	})
	p.handoffFn = p.handoff
	p.timeoutFn = p.timeout
	p.spinFn = p.spinEvent
	e.procs = append(e.procs, p)
	e.nlive++
	e.Schedule(0, func() {
		p.started = true
		e.rec.At(obs.EvProcStart, int64(e.now), p.name, 0, 0)
		p.handoff()
	})
	return p
}

// handoff switches from the event loop into p and returns when p
// yields or finishes. Must be called from the event loop. A panic or
// runtime.Goexit in p's body re-raises here.
func (p *Proc) handoff() {
	p.env.cur = p
	p.next()
	p.env.cur = nil
}

// yield switches from p back to the event loop and returns when p is
// next handed control.
func (p *Proc) yield() { p.yieldFn(struct{}{}) }

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Wait advances virtual time by d cycles from this process's
// perspective: the process sleeps and other events run meanwhile.
//
//copier:noalloc
func (p *Proc) Wait(d Time) {
	if d < 0 {
		badDelay(p.name, d)
	}
	// Events pop in (at, seq) order and the wake would take the largest
	// seq: if nothing queued is due by now+d and the running loop
	// reaches now+d, the wake is its next pop, so skip the switch and
	// just move the clock. An event due at now+d wins the tie.
	e := p.env
	if d <= e.limit-e.now && (e.events.empty() || e.events.peekAt() > e.now+d) {
		e.now += d
		return
	}
	e.Schedule(d, p.handoffFn)
	p.yield()
}

// Spin runs the calling process's loop `for { d, more := step(); if
// !more { return }; p.Wait(d) }` with the same events in the same
// order, but without a coroutine switch per wait. A wait that Wait
// would take switch-free just moves the clock, and the next step runs
// at once. Any other wait schedules one event, where Wait would have
// scheduled the wake, and the next step runs in that event. The step
// that reports done switches back into the process inside that same
// event, where Wait's wake would have resumed it, and Spin returns.
//
// step may run in event context, so it must not block, wait or spin:
// it may read the clock, schedule, broadcast and spawn. Spin panics
// outside a process body.
//
//copier:noalloc
func (e *Env) Spin(step func() (Time, bool)) {
	p := e.cur
	if p == nil {
		spinOutside()
	}
	p.step = step
	if !p.spinSteps() {
		p.yield()
	}
}

// spinSteps runs p's Spin steps from now until one is done (true) or
// one's wait must switch (false), in which case spinFn is scheduled
// where Wait would have scheduled the wake. The switch-free test is
// Wait's, restated here so that Wait keeps its own inline.
func (p *Proc) spinSteps() bool {
	e := p.env
	for {
		d, more := p.step()
		if !more {
			p.step = nil
			return true
		}
		if d < 0 {
			badDelay(p.name, d)
		}
		if d <= e.limit-e.now && (e.events.empty() || e.events.peekAt() > e.now+d) {
			e.now += d
			continue
		}
		e.Schedule(d, p.spinFn)
		return false
	}
}

// spinEvent runs p's next Spin steps in event context and, once one is
// done, resumes p inside this event.
func (p *Proc) spinEvent() {
	if p.spinSteps() {
		p.handoff()
	}
}

// enterWait opens a blocking episode and returns its epoch.
func (p *Proc) enterWait() uint64 {
	p.waitEpoch++
	p.sigWoken = false
	return p.waitEpoch
}

// exitWait closes the episode, invalidating any waiter-list entries
// still referencing it.
func (p *Proc) exitWait() { p.waitEpoch++ }

// Signal is a broadcast condition variable for simulation processes.
// Waiters are released in FIFO order at the instant of the broadcast.
type Signal struct {
	name    string
	blocked string // precomputed "signal:<name>" label, so Wait never concatenates
	waiters []sigWaiter
	stale   int // waiters entries whose WaitTimeout has timed out
}

// sigWaiter records one blocking episode by value: epoch pins which
// episode the entry belongs to, so entries surviving a timeout are
// recognized as stale instead of waking the proc spuriously.
type sigWaiter struct {
	p     *Proc
	epoch uint64
}

// NewSignal returns a named signal (the name appears in deadlock
// reports).
func NewSignal(name string) *Signal { return &Signal{name: name, blocked: "signal:" + name} }

// Wait blocks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	epoch := p.enterWait()
	s.waiters = append(s.waiters, sigWaiter{p: p, epoch: epoch})
	p.blockedOn = s.blocked
	p.yield()
	p.exitWait()
	p.blockedOn = ""
}

// WaitTimeout blocks p until the next Broadcast or until d elapses,
// whichever comes first. It reports whether the broadcast fired
// (false means the wait timed out).
func (s *Signal) WaitTimeout(p *Proc, d Time) bool {
	epoch := p.enterWait()
	s.waiters = append(s.waiters, sigWaiter{p: p, epoch: epoch})
	p.timeoutEpoch = epoch
	h := p.env.Schedule(d, p.timeoutFn)
	p.blockedOn = s.blocked
	p.yield()
	woken := p.sigWoken
	p.exitWait()
	p.blockedOn = ""
	if woken {
		h.Cancel()
		return true
	}
	// The timed-out entry stays behind, stale. Once stale entries
	// outnumber live ones, drop them in place; live ones keep their
	// order, so Broadcast wakes in the same order.
	s.stale++
	if 2*s.stale > len(s.waiters) {
		live := s.waiters[:0]
		for _, w := range s.waiters {
			if w.epoch == w.p.waitEpoch {
				live = append(live, w)
			}
		}
		s.waiters, s.stale = live, 0
	}
	return false
}

// timeout ends the WaitTimeout episode it was scheduled for, unless a
// broadcast already woke it.
func (p *Proc) timeout() {
	if p.waitEpoch == p.timeoutEpoch && !p.sigWoken {
		p.handoff()
	}
}

// Broadcast wakes all current waiters. Each waiter resumes at the
// current instant, in the order it called Wait. May be called from a
// process body or an event callback.
func (s *Signal) Broadcast(e *Env) {
	ws := s.waiters
	// Truncate in place: no proc runs during this loop (wakes are
	// scheduled, not immediate), so the backing array is reusable for
	// the next round of waiters without reallocating.
	s.waiters, s.stale = s.waiters[:0], 0
	for _, w := range ws {
		if w.epoch != w.p.waitEpoch {
			continue // stale entry: that episode already timed out
		}
		w.p.sigWoken = true
		e.Schedule(0, w.p.handoffFn)
	}
}

// NWaiting reports how many processes are blocked on the signal.
func (s *Signal) NWaiting() int { return len(s.waiters) - s.stale }

// DeadlockError reports processes still blocked when the event heap
// drained.
type DeadlockError struct {
	At      Time
	Blocked []string // "name (reason)" per blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d: %d blocked: %v", d.At, len(d.Blocked), d.Blocked)
}

// Run executes events until the heap is empty or the clock passes
// until (use Infinity for "run to completion"); stopping on until
// moves the clock up to it, never back. It returns a *DeadlockError if
// the heap drained while processes remain blocked.
//
// A panic in a process body propagates out of Run on the caller's
// goroutine, where the caller may recover it; a runtime.Goexit in a
// body (t.Fatal, for one) ends the goroutine that called Run.
func (e *Env) Run(until Time) error {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.limit = until
	for !e.events.empty() {
		if e.events.peekAt() > until {
			if e.now < until {
				e.now = until
			}
			return nil
		}
		at, fn, canceled := e.events.pop()
		if canceled {
			continue
		}
		e.now = at
		fn()
	}
	if e.nlive > 0 {
		var blocked []string
		for _, p := range e.procs {
			if p.started && !p.finished {
				blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, p.blockedOn))
			}
		}
		sort.Strings(blocked)
		return &DeadlockError{At: e.now, Blocked: blocked}
	}
	return nil
}
