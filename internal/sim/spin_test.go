package sim

import (
	"fmt"
	"strings"
	"testing"
)

// spinWorld is a small world decoded from fuzz bytes: a spinner
// process runs rounds of a step loop beside 1–4 other actors
// (processes and callback chains), and Run is called in slices.
type spinWorld struct {
	rounds []spinRound
	actors []spinActor
	slices []Time // Run(until) boundaries before the final Run(Infinity)
}

// spinRound is one step loop of the spinner and what it does after.
type spinRound struct {
	steps []spinStep // the last step reports done
	after byte       // 0 nothing, 1 Wait(d), 2 WaitTimeout(d+1), 3 Signal.Wait
	d     Time
}

// spinStep is one step: an action in the step, then a wait of d.
type spinStep struct {
	act byte // 0 nothing, 1 Broadcast, 2 schedule at +0, 3 schedule at +d2
	d   Time
	d2  Time
}

// spinActor is a process running ops in order, or a callback chain
// whose op i runs op[i].d after op i-1.
type spinActor struct {
	proc bool
	ops  []spinOp
}

// spinOp: a process waits (0), blocks on the signal (1), waits on it
// with a timeout (2), broadcasts (3) or schedules a callback (4); a
// chain link logs (0), broadcasts (1) or also schedules a callback at
// the current instant (2).
type spinOp struct {
	kind byte
	d    Time
}

type byteReader struct {
	b []byte
	i int
}

// n returns the next byte mod k (0 once the input runs out).
func (r *byteReader) n(k int) int {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return int(c) % k
}

// delay is small and often equal, 0 included.
func (r *byteReader) delay() Time { return Time(r.n(4)) }

func decodeSpinWorld(data []byte) spinWorld {
	r := &byteReader{b: data}
	var w spinWorld
	for i, n := 0, 1+r.n(3); i < n; i++ {
		var rd spinRound
		for j, m := 0, 1+r.n(8); j < m; j++ {
			rd.steps = append(rd.steps, spinStep{act: byte(r.n(4)), d: r.delay(), d2: r.delay()})
		}
		rd.after, rd.d = byte(r.n(4)), r.delay()
		w.rounds = append(w.rounds, rd)
	}
	for i, n := 0, 1+r.n(4); i < n; i++ {
		a := spinActor{proc: r.n(2) == 0}
		kinds := 3
		if a.proc {
			kinds = 5
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

// run plays the world and returns its log of (time, actor) entries.
// The spinner's loops go through Wait, or through Spin when spin is
// set; nothing else differs.
func (w spinWorld) run(spin bool) string {
	e := NewEnv()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d:", e.Now())+fmt.Sprintf(format, args...))
	}
	sig := NewSignal("s")
	e.Go("spinner", func(p *Proc) {
		for ri, rd := range w.rounds {
			i := 0
			step := func() (Time, bool) {
				st := rd.steps[i]
				logf("S%d.%d", ri, i)
				switch st.act {
				case 1:
					sig.Broadcast(e)
				case 2:
					e.Schedule(0, func() { logf("S%d.%d.cb0", ri, i) })
				case 3:
					e.Schedule(st.d2, func() { logf("S%d.%d.cb", ri, i) })
				}
				i++
				return st.d, i < len(rd.steps)
			}
			if spin {
				e.Spin(step)
			} else {
				for {
					d, more := step()
					if !more {
						break
					}
					p.Wait(d)
				}
			}
			logf("S%d.done", ri)
			switch rd.after {
			case 1:
				p.Wait(rd.d)
			case 2:
				sig.WaitTimeout(p, rd.d+1)
			case 3:
				sig.Wait(p)
			}
			logf("S%d.after", ri)
		}
	})
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
					}
					logf("a%d.%d", ai, oi)
				}
			})
			continue
		}
		var link func(oi int)
		link = func(oi int) {
			op := a.ops[oi]
			logf("c%d.%d", ai, oi)
			switch op.kind {
			case 1:
				sig.Broadcast(e)
			case 2:
				e.Schedule(0, func() { logf("c%d.%d.cb0", ai, oi) })
			}
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
	}
	if err := e.Run(Infinity); err != nil {
		logf("run: %v", err)
	}
	return strings.Join(log, "\n")
}

// FuzzSpinMatchesWait checks Spin against the loop it replaces: a
// world whose spinner loops through Spin logs exactly what it logs
// when the spinner loops through Wait, entry for entry. The checked-in
// corpus (testdata/fuzz/FuzzSpinMatchesWait) holds a step whose wait
// ties with a callback due at its end, which must run first
// (seed-wait-ties-callback); a done step that schedules a callback at
// its own instant, which must run after the spinner resumes
// (seed-done-schedules-now); and broadcasting steps beside blocked
// processes with Run slices cutting through the loop
// (seed-broadcast-slices).
func FuzzSpinMatchesWait(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeSpinWorld(data)
		want, got := w.run(false), w.run(true)
		if got != want {
			t.Fatalf("Spin diverges from Wait\n--- Wait ---\n%s\n--- Spin ---\n%s", want, got)
		}
	})
}

// TestSpinDoneFirstNeverYields: a step that is done on its first call
// returns from Spin at once, scheduling nothing, so the process runs
// on ahead of an event already due at the same instant.
func TestSpinDoneFirstNeverYields(t *testing.T) {
	e := NewEnv()
	var log []string
	e.Go("p", func(p *Proc) {
		e.Schedule(0, func() { log = append(log, "event") })
		before := e.seq
		e.Spin(func() (Time, bool) { return 5, false })
		if e.seq != before {
			t.Errorf("Spin scheduled %d events for a step done at once", e.seq-before)
		}
		log = append(log, "proc")
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); got != "proc event" || e.Now() != 0 {
		t.Errorf("order = %q at t=%d, want \"proc event\" at t=0", got, e.Now())
	}
}

// TestSpinOutsideProcessPanics: Spin needs a process to hand back to,
// so calling it from an event callback or between runs panics.
func TestSpinOutsideProcessPanics(t *testing.T) {
	done := func() (Time, bool) { return 0, false }
	e := NewEnv()
	var got any
	e.Schedule(0, func() {
		defer func() { got = recover() }()
		e.Spin(done)
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Error("Spin in event context did not panic")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Spin between runs did not panic")
			}
		}()
		e.Spin(done)
	}()
}

// TestSpinChainAllocFree pins the chain at zero allocations: a ticker
// waking at the same instants keeps every step's wait off the
// switch-free path, so each cycle runs one step in its own event.
func TestSpinChainAllocFree(t *testing.T) {
	e := NewEnv()
	stop := false
	steps, inEvent := 0, 0
	e.Go("spinner", func(p *Proc) {
		e.Spin(func() (Time, bool) {
			steps++
			if e.cur == nil {
				inEvent++
			}
			return 1, !stop
		})
	})
	e.Go("ticker", func(p *Proc) {
		for !stop {
			p.Wait(1)
		}
	})
	if err := e.Run(64); err != nil {
		t.Fatal(err)
	}
	steps, inEvent = 0, 0
	avg := testing.AllocsPerRun(200, func() {
		if err := e.Run(e.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm chain step allocates %.2f per cycle; want 0", avg)
	}
	if steps != 201 || inEvent != steps {
		t.Errorf("%d steps, %d in event context; want 201 each (AllocsPerRun runs 201 cycles)", steps, inEvent)
	}
	stop = true
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
}
