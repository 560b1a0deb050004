package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same instant: FIFO
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("now = %d, want 10", e.Now())
	}
}

func TestCancelEvent(t *testing.T) {
	e := NewEnv()
	fired := false
	h := e.Schedule(5, func() { fired = true })
	h.Cancel()
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestProcWaitAdvancesTime(t *testing.T) {
	e := NewEnv()
	var at []Time
	e.Go("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Wait(100)
		at = append(at, p.Now())
		p.Wait(0)
		at = append(at, p.Now())
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if at[0] != 0 || at[1] != 100 || at[2] != 100 {
		t.Fatalf("times = %v", at)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, fmt.Sprintf("a%d@%d", i, p.Now()))
				p.Wait(10)
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, fmt.Sprintf("b%d@%d", i, p.Now()))
				p.Wait(15)
			}
		})
		if err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic at %d: %q vs %q", i, first[i], again[i])
			}
		}
	}
}

func TestSignalBroadcastWakesFIFO(t *testing.T) {
	e := NewEnv()
	s := NewSignal("s")
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			s.Wait(p)
			order = append(order, name)
		})
	}
	e.Go("broadcaster", func(p *Proc) {
		p.Wait(50)
		if s.NWaiting() != 3 {
			t.Errorf("NWaiting = %d, want 3", s.NWaiting())
		}
		s.Broadcast(e)
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestResourceFIFOAndCapacity(t *testing.T) {
	e := NewEnv()
	r := NewResource("cpu", 2)
	var events []string
	worker := func(name string, hold Time) {
		e.Go(name, func(p *Proc) {
			r.Acquire(p)
			events = append(events, fmt.Sprintf("%s+%d", name, p.Now()))
			p.Wait(hold)
			events = append(events, fmt.Sprintf("%s-%d", name, p.Now()))
			r.Release(e)
		})
	}
	worker("w1", 100)
	worker("w2", 100)
	worker("w3", 50) // must wait until t=100
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1+0", "w2+0", "w1-100", "w2-100", "w3+100", "w3-150"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("resource leaked: inUse=%d", r.InUse())
	}
}

func TestResourceTransfersUnitToWaiter(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	got := false
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Wait(10)
		r.Release(e)
	})
	e.Go("waiter", func(p *Proc) {
		p.Wait(1)
		r.Acquire(p)
		got = true
		r.Release(e)
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("waiter never acquired")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	s := NewSignal("never")
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	err := e.Run(Infinity)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck (signal:never)" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEnv()
	fired := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(10)
			fired++
		}
	})
	// Run to t=55: ticks at 10..50 fire (5 ticks).
	if err := e.Run(55); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if e.Now() != 55 {
		t.Fatalf("now = %d, want 55", e.Now())
	}
}

func TestQueueReleaseOrder(t *testing.T) {
	e := NewEnv()
	q := NewQueue("q")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			q.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("releaser", func(p *Proc) {
		p.Wait(10)
		for q.Len() > 0 {
			q.Release(e)
			p.Wait(1)
		}
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// Property: for any set of (delay, id) pairs, events fire sorted by
// delay with FIFO tie-break on insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEnv()
		type rec struct {
			d  Time
			id int
		}
		var fired []rec
		for i, d := range delays {
			i, d := i, Time(d)
			e.Schedule(d, func() { fired = append(fired, rec{d, i}) })
		}
		if err := e.Run(Infinity); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.d > b.d || (a.d == b.d && a.id > b.id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTracer(t *testing.T) {
	e := NewEnv()
	var lines []string
	e.SetTracer(func(tm Time, format string, args ...any) {
		lines = append(lines, fmt.Sprintf("%d "+format, append([]any{tm}, args...)...))
	})
	e.Go("p", func(p *Proc) {
		p.Wait(7)
		p.Tracef("hello %d", 42)
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != "7 [p] hello 42" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	e := NewEnv()
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for negative wait")
			}
			// Let the proc finish normally so Run terminates.
		}()
		p.Wait(-1)
	})
	_ = e.Run(Infinity)
}

// A panic in a process body comes out of Run on the caller's
// goroutine, where the caller can recover it.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEnv()
	e.Go("boom", func(p *Proc) {
		p.Wait(5)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = e.Run(Infinity)
	}()
	if got != "boom" {
		t.Fatalf("recovered %v at Run's caller, want \"boom\"", got)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %d, want 5", e.Now())
	}
}

// A runtime.Goexit in a process body (what t.Fatal does) ends the
// goroutine that called Run instead of leaving Run blocked.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEnv()
	e.Go("quitter", func(p *Proc) {
		p.Wait(5)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = e.Run(Infinity)
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run's caller still blocked 10s after the body called runtime.Goexit")
	}
	if returned {
		t.Fatal("Run returned; want its caller's goroutine ended by the Goexit")
	}
}
