package sim

import "testing"

// BenchmarkEventSchedulePop is the event-queue hot path in isolation:
// one Schedule and the Run loop that peeks, pops and fires it. The
// steady state must not allocate.
func BenchmarkEventSchedulePop(b *testing.B) {
	e := NewEnv()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, nop)
		if err := e.Run(Infinity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventLoopDepth64 keeps a 64-deep event queue live, the
// depth a busy service run sustains: every fired event schedules a
// replacement at a pseudo-random future instant, exercising both sift
// directions of the heap until b.N pops have happened.
func BenchmarkEventLoopDepth64(b *testing.B) {
	e := NewEnv()
	const depth = 64
	fired := 0
	n := b.N
	rnd := uint64(1)
	next := func() Time {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return Time(rnd % 1024)
	}
	var fn func()
	fn = func() {
		fired++
		if fired <= n {
			e.Schedule(next()+1, fn)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(next(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(Infinity); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcPingPong measures the process handoff path: two
// coroutines alternating Wait(1), the pattern every simulated thread
// follows.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEnv()
	n := b.N
	for p := 0; p < 2; p++ {
		e.Go("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Wait(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(Infinity); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcWaitSolo is one process sleeping alone: each wake is
// the loop's next event, so Wait takes its switch-free path.
// BenchmarkProcPingPong is the control, where the two procs' wakes tie
// and every Wait still switches.
func BenchmarkProcWaitSolo(b *testing.B) {
	e := NewEnv()
	n := b.N
	e.Go("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(Infinity); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalBroadcast measures the Signal wait/broadcast
// round-trip used by csync waiters.
func BenchmarkSignalBroadcast(b *testing.B) {
	e := NewEnv()
	s := NewSignal("bench")
	n := b.N
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < n; i++ {
			s.Wait(p)
		}
	})
	e.Go("caster", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
			s.Broadcast(e)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(Infinity); err != nil {
		b.Fatal(err)
	}
}
