package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestWaitFastPathOrdering pins when Wait may skip the switch: only
// when its wake would be the loop's next pop anyway. Each case runs
// one proc that queues an event (or none) and then waits; the log
// shows who ran first, and e.seq shows whether Wait scheduled a wake.
func TestWaitFastPathOrdering(t *testing.T) {
	const noEvent = -1
	cases := []struct {
		name     string
		d, event Time // event: offset of the queued event, or noEvent
		want     string
		fast     bool
	}{
		{"wait0 behind same-instant event", 0, 0, "event@0 proc@0", false},
		{"wait0 on empty heap", 0, noEvent, "proc@0", true},
		{"event before wake", 10, 9, "event@9 proc@10", false},
		{"event at exactly wake", 10, 10, "event@10 proc@10", false},
		{"event after wake", 10, 11, "proc@10 event@11", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			var log []string
			var scheduled uint64
			e.Go("p", func(p *Proc) {
				if tc.event != noEvent {
					e.Schedule(tc.event, func() { log = append(log, fmt.Sprintf("event@%d", e.Now())) })
				}
				before := e.seq
				p.Wait(tc.d)
				scheduled = e.seq - before
				log = append(log, fmt.Sprintf("proc@%d", p.Now()))
			})
			if err := e.Run(Infinity); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(log, " "); got != tc.want {
				t.Errorf("order = %q, want %q", got, tc.want)
			}
			if fast := scheduled == 0; fast != tc.fast {
				t.Errorf("switch-free = %v (wakes scheduled: %d), want %v", fast, scheduled, tc.fast)
			}
		})
	}
}

// TestWaitCrossingRunUntil: a Wait ending after until leaves Run at
// until with the proc still asleep, and the next Run resumes it at
// exactly now+d; one ending at until (inclusive) completes inside it.
func TestWaitCrossingRunUntil(t *testing.T) {
	for _, until := range []Time{99, 100} {
		e := NewEnv()
		woke := Time(-1)
		e.Go("p", func(p *Proc) {
			p.Wait(40)
			p.Wait(60)
			woke = p.Now()
		})
		if err := e.Run(until); err != nil {
			t.Fatal(err)
		}
		if e.Now() != until {
			t.Errorf("Run(%d): now = %d, want %d", until, e.Now(), until)
		}
		wantWoke := Time(-1) // still asleep: its wake is after until
		if until == 100 {
			wantWoke = 100
		}
		if woke != wantWoke {
			t.Errorf("Run(%d): proc woke at %d, want %d", until, woke, wantWoke)
		}
		if err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		if woke != 100 {
			t.Errorf("after Run(%d): proc woke at %d, want 100", until, woke)
		}
	}
}

// TestRunNeverMovesClockBack: Run with until before the clock leaves
// the clock alone, so later delays count from the real now.
func TestRunNeverMovesClockBack(t *testing.T) {
	e := NewEnv()
	var wakes []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(30)
			wakes = append(wakes, p.Now())
		}
	})
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 100 {
		t.Fatalf("Run(100) then Run(50): now = %d, want 100", e.Now())
	}
	fired := Time(-1)
	e.Schedule(10, func() { fired = e.Now() })
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if fired != 110 {
		t.Errorf("event scheduled 10 cycles after t=100 fired at %d, want 110", fired)
	}
	if got := fmt.Sprint(wakes); got != "[30 60 90 120 150]" {
		t.Errorf("wakes = %s, want [30 60 90 120 150]", got)
	}
}

// TestLoneSleeperSchedulesNothing: a proc sleeping alone never needs
// the heap, so its whole loop schedules no wake at all (the one event
// is its start).
func TestLoneSleeperSchedulesNothing(t *testing.T) {
	e := NewEnv()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Wait(7)
		}
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if e.seq != 1 || e.Now() != 7000 {
		t.Fatalf("seq = %d, now = %d; want 1 scheduled event and now 7000", e.seq, e.Now())
	}
}

// TestWaitAtWindowEdge runs a window [0, 100): shard 0's Wait ends at
// the window's last cycle, 99, and may finish inside it; shard 1's
// ends at 100, where a cross-shard event from shard 0 lands too. That
// one must not finish early: the event, delivered at the boundary,
// would then be queued behind what the woken proc schedules at 100
// instead of ahead of it.
func TestWaitAtWindowEdge(t *testing.T) {
	const lookahead = 100
	want := "shard0: A@99\nshard1: B@100 cross@100 B-event@100\n"
	for _, workers := range []int{1, 4} {
		set := NewShardSet(2, lookahead, workers)
		logs := make([][]string, 2)
		note := func(i int, what string) {
			logs[i] = append(logs[i], fmt.Sprintf("%s@%d", what, set.Shard(i).Now()))
		}
		set.Shard(0).Go("A", func(p *Proc) {
			set.Send(0, 1, lookahead, func() { note(1, "cross") })
			p.Wait(lookahead - tick)
			note(0, "A")
		})
		set.Shard(1).Go("B", func(p *Proc) {
			p.Wait(lookahead)
			note(1, "B")
			set.Shard(1).Schedule(0, func() { note(1, "B-event") })
		})
		if err := set.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i, l := range logs {
			fmt.Fprintf(&b, "shard%d: %s\n", i, strings.Join(l, " "))
		}
		if got := b.String(); got != want {
			t.Errorf("workers=%d:\n%swant:\n%s", workers, got, want)
		}
		// Shard 0 scheduled only A's start: its Wait took the
		// switch-free path inside the window.
		if s := set.Shard(0).seq; s != 1 {
			t.Errorf("workers=%d: shard0 scheduled %d events, want 1", workers, s)
		}
	}
}

// TestWaitTimeoutDropsStaleEntries: on a signal nobody broadcasts,
// every WaitTimeout times out and leaves its entry behind. Over 2^20
// timeouts, with one sleeper and with three, the waiter list stays no
// longer than the live waiters, and a warm timeout round allocates
// nothing.
func TestWaitTimeoutDropsStaleEntries(t *testing.T) {
	const period = 10
	for _, sleepers := range []int{1, 3} {
		e := NewEnv()
		s := NewSignal("never")
		stop := false
		for i := 0; i < sleepers; i++ {
			e.Go("sleeper", func(p *Proc) {
				for !stop {
					s.WaitTimeout(p, period)
				}
			})
		}
		// Mid-period, every sleeper is blocked again.
		at := Time(period / 2)
		round := func() {
			if err := e.Run(at); err != nil {
				t.Fatal(err)
			}
			at += period
		}
		for r := 0; r < (1<<20)/sleepers; r++ {
			round()
			if n, live := len(s.waiters), s.NWaiting(); n > live || live != sleepers {
				t.Fatalf("%d sleepers, round %d: %d entries for %d live waiters", sleepers, r, n, live)
			}
		}
		if avg := testing.AllocsPerRun(100, round); avg != 0 {
			t.Errorf("%d sleepers: warm timeout round allocates %.2f; want 0", sleepers, avg)
		}
		stop = true
		if err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
	}
}
