package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"copier/internal/fault"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/units"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// idleScenario is one pinned idle-stretch world: build sets it up,
// starts its service threads and returns how long to run before Stop.
type idleScenario struct {
	name  string
	build func(t *testing.T) (env *sim.Env, svc *Service, until sim.Time)
}

// copyTask returns an n-byte copy between two fresh buffers of the
// harness client's user address space.
func (h *harness) copyTask(t *testing.T, n int) *Task {
	t.Helper()
	src := h.alloc(t, h.uas, n, 0x5C)
	dst := h.alloc(t, h.uas, n, 0)
	return &Task{Src: src, Dst: dst, SrcAS: h.uas, DstAS: h.uas, Len: units.Bytes(n)}
}

// at runs fn at virtual time when. A late call reaches when through a
// final one-cycle wait scheduled at when-1, so it runs after every
// event already scheduled for when; otherwise it is scheduled at time
// zero and runs before any event scheduled later for the same instant.
func at(env *sim.Env, when sim.Time, late bool, fn func()) {
	env.Go("at", func(p *sim.Proc) {
		if late {
			p.Wait(when - 1)
			p.Wait(1)
		} else {
			p.Wait(when)
		}
		fn()
	})
}

// lazyScenario submits one lazy 4 KB copy with the given SLO deadline
// and lazy deadline to a fresh flat service.
func lazyScenario(deadline, lazyDeadline sim.Time) func(t *testing.T) (*sim.Env, *Service, sim.Time) {
	return func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		h := newHarness(t, DefaultConfig())
		task := h.copyTask(t, 4<<10)
		task.Lazy, task.Deadline, task.LazyDeadline = true, deadline, lazyDeadline
		h.c.SubmitCopy(task, false)
		h.start()
		return h.env, h.svc, 3_000_000
	}
}

// faultedCopy runs one 1 MB copy whose second DMA descriptor fails
// while the third stalls 300,000 cycles (a Rule's Nth counts from
// zero), with a waiter blocked until the task finishes.
func faultedCopy(maxRetries int) func(t *testing.T) (*sim.Env, *Service, sim.Time) {
	return func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		cfg := DefaultConfig()
		cfg.MaxRetries = maxRetries
		h := newHarness(t, cfg)
		h.svc.SetFaultInjector(fault.New(1).
			AddRule(fault.Rule{Site: fault.SiteDMA, Nth: 1, Outcome: fault.Outcome{Fail: true}}).
			AddRule(fault.Rule{Site: fault.SiteDMA, Nth: 2, Outcome: fault.Outcome{Stall: 300_000}}))
		task := h.copyTask(t, 1<<20)
		h.c.SubmitCopy(task, false)
		h.start()
		h.env.Go("waiter", func(p *sim.Proc) {
			for !task.Executed() {
				h.c.Progress.Wait(p)
			}
		})
		return h.env, h.svc, 3_000_000
	}
}

// submitOnEdge submits one 4 KB copy to an idle flat service exactly
// at when: a sweep's admission instant or its pick instant (the end of
// its SchedulePick wait). An idle thread's first sweep is admitted at
// 900 (after its XSave) and every later one 100 cycles on.
func submitOnEdge(when sim.Time, late bool) func(t *testing.T) (*sim.Env, *Service, sim.Time) {
	return func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		h := newHarness(t, DefaultConfig())
		task := h.copyTask(t, 4<<10)
		at(h.env, when, late, func() { h.c.SubmitCopy(task, false) })
		h.start()
		return h.env, h.svc, 2_000_000
	}
}

var idleScenarios = []idleScenario{
	// A client killed mid-stretch is torn down at the next sweep, not
	// at Stop's final reclaim.
	{"kill-mid-stretch", func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		h := newHarness(t, DefaultConfig())
		h.c.SubmitCopy(h.copyTask(t, 4<<10), false)
		h.start()
		at(h.env, 200_037, false, func() { h.svc.KillClient(h.c) })
		return h.env, h.svc, 3_000_000
	}},
	// The failed descriptor's task is finalized once its stalled
	// sibling completes.
	{"failed-dma-beside-stall", faultedCopy(NoRetries)},
	// The failed chunk is re-dispatched when its backoff expires, while
	// the stalled sibling chunk keeps the thread polling every 40 cycles.
	{"retry-beside-stall", faultedCopy(0)},
	// The second of a 60 KB copy's two DMA chunks fails, and nothing
	// else is in flight; its backoff expires inside an idle sweep's
	// pick wait, so that very pick re-dispatches it.
	{"retry-inside-pick-wait", func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		h := newHarness(t, DefaultConfig())
		h.svc.SetFaultInjector(fault.New(1).
			AddRule(fault.Rule{Site: fault.SiteDMA, Nth: 1, Outcome: fault.Outcome{Fail: true}}))
		h.c.SubmitCopy(h.copyTask(t, 60<<10), false)
		h.start()
		return h.env, h.svc, 3_000_000
	}},
	// A lazy task is shed at its SLO deadline mid-stretch, long before
	// its lazy deadline.
	{"deadline-mid-stretch", lazyScenario(100_003, 1_000_000)},
	// The deadline falls inside the first fruitless sweep's pick wait
	// (admitted at 975, picked at 1015): the next sweep sheds the task.
	{"deadline-inside-pick-wait", lazyScenario(1_001, 1_000_000)},
	// A lazy task expires mid-stretch.
	{"lazy-expiry-mid-stretch", lazyScenario(0, 250_001)},
	// A 1 MB lazy backlog enters brownout during the idle stretch, and
	// the controller exits once the expired task drains it.
	{"brownout-during-stretch", func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		cfg := DefaultConfig()
		cfg.BrownoutHigh = 512 << 10
		h := newHarness(t, cfg)
		task := h.copyTask(t, 1<<20)
		task.Lazy, task.LazyDeadline = true, 250_001
		h.c.SubmitCopy(task, false)
		h.start()
		return h.env, h.svc, 3_000_000
	}},
	{"submit-at-first-admission/early", submitOnEdge(900, false)},
	{"submit-at-first-admission/late", submitOnEdge(900, true)},
	{"submit-at-first-pick/early", submitOnEdge(940, false)},
	{"submit-at-first-pick/late", submitOnEdge(940, true)},
	{"submit-at-admission-mid-stretch/early", submitOnEdge(100_900, false)},
	{"submit-at-admission-mid-stretch/late", submitOnEdge(100_900, true)},
	{"submit-at-pick-mid-stretch/early", submitOnEdge(100_940, false)},
	{"submit-at-pick-mid-stretch/late", submitOnEdge(100_940, true)},
	// A copy submitted inside the poll wait before the admission at
	// 100,900 ends the quiet stretch there. A second copy lands at
	// 100,900 too, scheduled during that wait and so after the
	// thread's wake: the sweep must admit the first copy alone.
	{"second-submit-at-stretch-end", func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		h := newHarness(t, DefaultConfig())
		first, second := h.copyTask(t, 4<<10), h.copyTask(t, 4<<10)
		h.start()
		h.env.Go("submitter", func(p *sim.Proc) {
			p.Wait(100_870)
			h.c.SubmitCopy(first, false)
			p.Wait(30)
			h.c.SubmitCopy(second, false)
		})
		return h.env, h.svc, 2_000_000
	}},
	// Three flat threads scale down to two; the quiet slot 1 inherits
	// client d and its pending lazy task, which must still expire at
	// its lazy deadline.
	{"autoscale-3-to-2", func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		cfg := DefaultConfig()
		cfg.MaxThreads, cfg.HighLoad, cfg.LowLoad = 3, 8<<10, 6<<10
		h := newHarness(t, cfg)
		h.svc.SetSpawnThread(func(slot int) {
			h.env.Go("copierd", func(p *sim.Proc) { h.svc.ThreadMain(testCtx{p}, slot) })
		})
		b := h.svc.NewClient("b", h.uas, h.kas, nil)
		c := h.svc.NewClient("c", h.uas, h.kas, nil)
		d := h.svc.NewClient("d", h.uas, h.kas, nil)
		lazy := func(cl *Client, n int, deadline sim.Time) {
			task := h.copyTask(t, n)
			task.Lazy, task.LazyDeadline = true, deadline
			cl.SubmitCopy(task, false)
		}
		// Client a's 24 KB of lazy work pumps the backlog; c and d each
		// park 4 KB until late.
		for i := 0; i < 3; i++ {
			lazy(h.c, 8<<10, 100_001)
		}
		lazy(c, 4<<10, 700_001)
		lazy(d, 4<<10, 600_001)
		h.start()
		// A second busy sweep on slot 0 spawns the third thread; a copy
		// on b then leaves slot 1's last fruitless sweep without d.
		kick, kickB := h.copyTask(t, 1<<10), h.copyTask(t, 1<<10)
		at(h.env, 20_000, false, func() { h.c.SubmitCopy(kick, false) })
		at(h.env, 50_000, false, func() { b.SubmitCopy(kickB, false) })
		return h.env, h.svc, 3_000_000
	}},
	// Node 1's idle thread sweeps every 40 cycles while node 0's DMA is
	// in flight and every 100 once it drains.
	{"numa-idle-slot-regimes", func(t *testing.T) (*sim.Env, *Service, sim.Time) {
		h := newNUMAHarness(t, 2, DefaultConfig())
		h.svc.SetFaultInjector(fault.New(1).
			AddRule(fault.Rule{Site: fault.SiteDMA, Nth: 3, Outcome: fault.Outcome{Stall: 200_000}}))
		src := h.alloc(t, 0, 1<<20, 0x5C)
		dst := h.alloc(t, 0, 1<<20, 0)
		as := h.spaces[0]
		h.clients[0].SubmitCopy(&Task{Src: src, Dst: dst, SrcAS: as, DstAS: as, Len: 1 << 20}, false)
		h.start()
		return h.env, h.svc, 2_000_000
	}},
}

// idleReport runs a built world to until, stops the service and
// drains it, then prints the instant, row and layer of every task
// outcome, retry, teardown and brownout edge, any run error (a wedged
// drain shows as a deadlock), and the final Stats.
func idleReport(w io.Writer, env *sim.Env, svc *Service, until sim.Time) {
	rec := obs.NewRecorder(1 << 12)
	env.SetRecorder(rec)
	err := env.Run(until)
	if err == nil {
		svc.Stop()
		err = env.Run(until + 10_000_000)
	}
	rec.Events(func(e *obs.Event) {
		switch e.Kind {
		case obs.EvTaskDispatch, obs.EvTaskComplete, obs.EvTaskFailed, obs.EvTaskShed,
			obs.EvTaskRetry, obs.EvClientTeardown, obs.EvBrownout:
			fmt.Fprintf(w, "%9d %-14v %-13s %-4v %s a=%d b=%d\n", e.T, e.Kind, e.Track, e.Kind.Layer(), e.Name, e.A, e.B)
		}
	})
	if err != nil {
		fmt.Fprintf(w, "run: %v\n", err)
	}
	fmt.Fprintf(w, "stats %+v\n", svc.Stats)
}

// TestIdleStretchGolden pins what a service thread does across idle
// polling stretches: when work that arrives mid-stretch (a kill, a DMA
// completion, a deadline, a lazy expiry, a retry backoff, a submission
// on a sweep's edge, clients inherited from a parked thread) is
// noticed, and the exact sweep and sleep counts. Regenerate with
// `go test ./internal/core -run TestIdleStretchGolden -update`.
func TestIdleStretchGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, sc := range idleScenarios {
		fmt.Fprintf(&buf, "== %s\n", sc.name)
		env, svc, until := sc.build(t)
		idleReport(&buf, env, svc, until)
	}
	golden := filepath.Join("testdata", "idle_stretch.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output diverges from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}
