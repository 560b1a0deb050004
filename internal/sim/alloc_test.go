package sim

import "testing"

// TestScheduleRunAllocFree pins the //copier:noalloc contract on the
// event loop dynamically: copiervet's alloclint proves no value
// *escapes* inside schedule/pop, and this test proves the whole warm
// cycle — including arena and free-list reuse — performs zero heap
// allocations per event.
func TestScheduleRunAllocFree(t *testing.T) {
	env := NewEnv()
	nop := func() {}
	// Warm the arena, free list and heap slice past steady state.
	for i := 0; i < 64; i++ {
		env.Schedule(Time(i), nop)
	}
	if err := env.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		env.Schedule(1, nop)
		if err := env.Run(Infinity); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm schedule/pop cycle allocates %.2f per event; want 0", avg)
	}
}

// TestProcWaitAllocFree pins the process handoff at zero allocations:
// a warm sleep/wake cycle of Proc.Wait, a Signal.Wait woken by
// Broadcast, and a Signal.WaitTimeout each switch into a process and
// back without touching the heap. Two sleepers waking at the same
// instant keep Proc.Wait on the switching path every cycle.
func TestProcWaitAllocFree(t *testing.T) {
	// Each case's cycle advances the clock by period, which covers
	// every kind of wake the case exercises once.
	cases := []struct {
		name   string
		period Time
		spawn  func(e *Env, stop *bool)
	}{
		{"Proc.Wait", 1, func(e *Env, stop *bool) {
			e.Go("sleeper", func(p *Proc) {
				for !*stop {
					p.Wait(1)
				}
			})
		}},
		{"Proc.Wait-two-sleepers", 1, func(e *Env, stop *bool) {
			for _, name := range []string{"a", "b"} {
				e.Go(name, func(p *Proc) {
					for !*stop {
						p.Wait(1)
					}
				})
			}
		}},
		{"Signal.Wait+Broadcast", 1, func(e *Env, stop *bool) {
			s := NewSignal("s")
			e.Go("waiter", func(p *Proc) {
				for !*stop {
					s.Wait(p)
				}
			})
			e.Go("caster", func(p *Proc) {
				for !*stop {
					p.Wait(1)
					s.Broadcast(e)
				}
			})
		}},
		// Per period of 2: one wait expires at an odd instant, the
		// next is woken by the broadcast at the even one.
		{"Signal.WaitTimeout", 2, func(e *Env, stop *bool) {
			s := NewSignal("s")
			e.Go("waiter", func(p *Proc) {
				for !*stop {
					s.WaitTimeout(p, 1)
				}
			})
			e.Go("caster", func(p *Proc) {
				for !*stop {
					p.Wait(2)
					s.Broadcast(e)
				}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			stop := false
			tc.spawn(env, &stop)
			cycle := func() {
				if err := env.Run(env.Now() + tc.period); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("warm %s cycle allocates %.2f; want 0", tc.name, avg)
			}
			stop = true
			if err := env.Run(Infinity); err != nil {
				t.Fatal(err)
			}
		})
	}
}
