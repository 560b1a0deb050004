package sim

import (
	"fmt"
	"strings"
	"testing"
)

// idleWorld is a small world decoded from fuzz bytes: 1–4 spinners
// run two-wait step loops that declare idle stretches, beside 0–4
// other actors (processes and callback chains), and Run is called in
// slices.
type idleWorld struct {
	spinners []idleSpinner
	actors   []spinActor
	slices   []Time // Run(until) boundaries before the final Run(Infinity)
}

// idleSpinner is one spinner's script. Its loop alternates two waits.
// Each real step (one its stretch does not cover) logs, acts, and
// opens the next stretch from stretches in turn; the one after the
// last real step reports done.
type idleSpinner struct {
	waits     [2]Time
	start     Time // Wait before the loop
	stretches []idleSpec
	acts      []byte // per real step, in turn: 0 nothing, 1 schedule a logging callback at +1, 2 broadcast
	real      int
}

// idleSpec bounds a stretch: at most n steps, none at or after span
// past the step that opens it.
type idleSpec struct {
	n    int64
	span Time
}

func decodeIdleWorld(data []byte) idleWorld {
	r := &byteReader{b: data}
	var w idleWorld
	for i, n := 0, 1+r.n(4); i < n; i++ {
		s := idleSpinner{waits: [2]Time{Time(1 + r.n(4)), Time(1 + r.n(4))}, start: r.delay()}
		for j, m := 0, 1+r.n(3); j < m; j++ {
			s.stretches = append(s.stretches, idleSpec{n: int64(r.n(8)), span: Time(1 + r.n(16))})
		}
		for j, m := 0, 1+r.n(3); j < m; j++ {
			s.acts = append(s.acts, byte(r.n(3)))
		}
		s.real = 1 + r.n(6)
		w.spinners = append(w.spinners, s)
	}
	for i, n := 0, r.n(5); i < n; i++ {
		a := spinActor{proc: r.n(2) == 0}
		kinds := 4
		if a.proc {
			kinds = 6
		}
		for j, m := 0, 1+r.n(6); j < m; j++ {
			a.ops = append(a.ops, spinOp{kind: byte(r.n(kinds)), d: r.delay()})
		}
		w.actors = append(w.actors, a)
	}
	until := Time(0)
	for i, n := 0, r.n(5); i < n; i++ {
		until += Time(1 + r.n(7))
		w.slices = append(w.slices, until)
	}
	return w
}

// idleLoop is a spinner's state: its counters, its pattern, and the
// stretch its last real step opened.
type idleLoop struct {
	id      int
	waits   [2]Time
	phase   int  // the next wait is waits[phase]
	last    Time // the wait that ends at the next step
	steps   int64
	charged Time
	valid   bool // false once an actor invalidates the stretch
	left    int64
	before  Time
	reals   int
	ok      func() bool
	skip    func(int64)
}

// account is a covered step: it charges the wait that ended and
// returns the next.
func (l *idleLoop) account() Time {
	l.charged += l.last
	l.steps++
	l.left--
	w := l.waits[l.phase]
	l.phase ^= 1
	l.last = w
	return w
}

func (l *idleLoop) String() string {
	return fmt.Sprintf("S%d{steps=%d charged=%d phase=%d left=%d}", l.id, l.steps, l.charged, l.phase, l.left)
}

// run plays the world and returns its log. Spinners declare their
// stretches when declare is set; nothing else differs.
func (w idleWorld) run(declare bool) string {
	e := NewEnv()
	var log []string
	var loops []*idleLoop
	snap := func() string {
		var b strings.Builder
		for _, l := range loops {
			b.WriteString(" ")
			b.WriteString(l.String())
		}
		return b.String()
	}
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d:", e.Now())+fmt.Sprintf(format, args...)+snap())
	}
	sig := NewSignal("s")
	for si, sc := range w.spinners {
		l := &idleLoop{id: si, waits: sc.waits, valid: true}
		l.ok = func() bool { return l.valid }
		l.skip = func(k int64) {
			for ; k > 0; k-- {
				l.account()
			}
		}
		loops = append(loops, l)
		e.Go(fmt.Sprintf("spinner%d", si), func(p *Proc) {
			p.Wait(sc.start)
			step := func() (Time, bool) {
				if l.valid && l.left > 0 && e.Now() < l.before {
					d := l.account()
					if declare {
						e.DeclareIdle(IdleStretch{Waits: [2]Time{l.waits[l.phase], l.waits[l.phase^1]},
							N: l.left, Before: l.before, OK: l.ok, Skip: l.skip})
					}
					return d, true
				}
				// A real step: an invalid stretch changes the pattern.
				if !l.valid {
					l.waits = [2]Time{l.waits[1] + 1, l.waits[0]}
					l.valid = true
				}
				spec := sc.stretches[l.reals%len(sc.stretches)]
				act := sc.acts[l.reals%len(sc.acts)]
				l.reals++
				d := l.account()
				l.left, l.before = spec.n, e.Now()+spec.span
				logf("S%d.real%d", si, l.reals)
				switch act {
				case 1:
					reals := l.reals
					e.Schedule(1, func() { logf("S%d.real%d.cb", si, reals) })
				case 2:
					sig.Broadcast(e)
				}
				if l.reals > sc.real {
					return 0, false
				}
				if declare {
					e.DeclareIdle(IdleStretch{Waits: [2]Time{l.waits[l.phase], l.waits[l.phase^1]},
						N: l.left, Before: l.before, OK: l.ok, Skip: l.skip})
				}
				return d, true
			}
			e.Spin(step)
			logf("S%d.done", si)
		})
	}
	invalidate := func(d Time) {
		l := loops[int(d)%len(loops)]
		l.valid = false
	}
	for ai, a := range w.actors {
		if a.proc {
			e.Go(fmt.Sprintf("a%d", ai), func(p *Proc) {
				for oi, op := range a.ops {
					switch op.kind {
					case 0:
						p.Wait(op.d)
					case 1:
						sig.Wait(p)
					case 2:
						sig.WaitTimeout(p, op.d)
					case 3:
						sig.Broadcast(e)
					case 4:
						e.Schedule(op.d, func() { logf("a%d.%d.cb", ai, oi) })
					case 5:
						invalidate(op.d)
					}
					logf("a%d.%d", ai, oi)
				}
			})
			continue
		}
		var link func(oi int)
		link = func(oi int) {
			op := a.ops[oi]
			switch op.kind {
			case 1:
				sig.Broadcast(e)
			case 2:
				e.Schedule(0, func() { logf("c%d.%d.cb0", ai, oi) })
			case 3:
				invalidate(op.d)
			}
			logf("c%d.%d", ai, oi)
			if oi+1 < len(a.ops) {
				e.Schedule(a.ops[oi+1].d, func() { link(oi + 1) })
			}
		}
		e.Schedule(a.ops[0].d, func() { link(0) })
	}
	for _, until := range w.slices {
		if err := e.Run(until); err != nil {
			logf("run(%d): %v", until, err)
		}
		logf("run(%d) end", until)
	}
	if err := e.Run(Infinity); err != nil {
		logf("run: %v", err)
	}
	logf("end")
	if e.nidle != 0 {
		logf("nidle=%d", e.nidle)
	}
	return strings.Join(log, "\n")
}

// FuzzIdleMatchesSteps checks idle stretches against the steps they
// stand for: a world whose spinners declare their stretches logs
// exactly what it logs when they declare nothing, entry for entry,
// with every spinner's counters on every entry. The checked-in corpus
// (testdata/fuzz/FuzzIdleMatchesSteps) holds a process wait whose end
// ties with an idle step scheduled before the wait, which is accounted
// first, and one scheduled after it, which is not
// (seed-wait-ties-idle-step); two stretches in lockstep with different
// pending instants, whose moved steps must keep the order their chains
// give (seed-lockstep-offset); a stretch invalidated mid-window
// (seed-invalidate-mid-window); and Run slices ending inside stretches
// (seed-slice-inside-stretch).
func FuzzIdleMatchesSteps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeIdleWorld(data)
		want, got := w.run(false), w.run(true)
		if got != want {
			t.Fatalf("declared stretches diverge from their steps\n--- steps ---\n%s\n--- declared ---\n%s", want, got)
		}
	})
}
