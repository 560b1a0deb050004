// Chaos harness: the robustness counterpart of the performance
// experiments. It reruns the fig9-style copy workload with the fault
// injector enabled and a client killed mid-run, then reports the
// recovery counters and the leak audit. Every run is a pure function
// of the seed, so two runs of the same seed must be byte-identical —
// the output golden (testdata/golden/chaos.txt) relies on it.
package bench

import (
	"bytes"
	"fmt"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/fault"
	"copier/internal/mem"
	"copier/internal/sim"
)

func init() {
	register("chaos", "§4.5/§5 failure recovery (no paper figure)", runChaos)
}

// chaosResult is one seeded run's outcome.
type chaosResult struct {
	executed, failed int
	dmaFaults        int64
	cpuFaults        int64
	retried          int64
	fallbackKB       int64
	teardowns        int64
	reclaimed        int64
	leakedPins       int
	ringSlots        int
	backlog          int64
	dataOK           bool
}

// chaosRun drives tasks 64KB copies through a faulty service while a
// second client dies mid-run. All schedule variation derives from the
// seed; the caller supplies the environment so pooled sweeps can wire
// each seed's run to its job's private recorder.
func chaosRun(env *sim.Env, seed uint64, tasks int) chaosResult {
	const size = 64 << 10
	pm := mem.NewPhysMem(64 << 20)
	svc := core.NewService(env, pm, core.DefaultConfig())
	svc.SetFaultInjector(fault.New(seed).
		SetRates(fault.SiteDMA, fault.Rates{
			FailPpm: 80_000, StallPpm: 60_000,
			StallCycles: 20 * cycles.CyclesPerMicrosecond,
		}).
		SetRates(fault.SiteCPU, fault.Rates{
			FailPpm: 4_000, StallPpm: 10_000,
			StallCycles: 5 * cycles.CyclesPerMicrosecond,
		}))
	uasA := mem.NewAddrSpace(pm)
	uasB := mem.NewAddrSpace(pm)
	kas := mem.NewAddrSpace(pm)
	cA := svc.NewClient("chaosA", uasA, kas, nil)
	cB := svc.NewClient("victim", uasB, kas, nil)

	alloc := func(as *mem.AddrSpace, fill byte) mem.VA {
		va := as.MMap(size, mem.PermRead|mem.PermWrite, "buf")
		if _, err := as.Populate(va, size, true); err != nil {
			panic(err)
		}
		if err := as.WriteAt(va, bytes.Repeat([]byte{fill}, size)); err != nil {
			panic(err)
		}
		return va
	}

	type job struct {
		task *core.Task
		dst  mem.VA
		fill byte
	}
	var jobs []*job

	// Survivor client: the workload whose completion we require.
	env.Go("driverA", func(p *sim.Proc) {
		ctx := benchCtx{p}
		for i := 0; i < tasks; i++ {
			fill := byte(i%251) + 1
			src := alloc(uasA, fill)
			dst := alloc(uasA, 0)
			task := &core.Task{Src: src, Dst: dst, SrcAS: uasA, DstAS: uasA,
				Len: size, Desc: core.NewDescriptor(dst, size, 0)}
			ctx.Exec(cycles.SubmitTask)
			for !cA.SubmitCopy(task, false) {
				ctx.Exec(cycles.CsyncPoll)
			}
			jobs = append(jobs, &job{task, dst, fill})
			ctx.Exec(2 * cycles.CyclesPerMicrosecond)
		}
		// Wait for every task to finalize — executed cleanly or failed
		// after retries; either way the service must converge.
		for _, j := range jobs {
			for !j.task.Executed() && !j.task.Aborted() {
				ctx.Exec(cycles.CsyncPoll)
				if j.task.Executed() || j.task.Aborted() {
					break
				}
				ctx.SpinUntil(cA.Progress)
			}
		}
		svc.Stop()
	})
	// Victim client: submits a burst, then dies mid-copy.
	env.Go("driverB", func(p *sim.Proc) {
		ctx := benchCtx{p}
		for i := 0; i < 8; i++ {
			src := alloc(uasB, 0xEE)
			dst := alloc(uasB, 0)
			task := &core.Task{Src: src, Dst: dst, SrcAS: uasB, DstAS: uasB,
				Len: size, Desc: core.NewDescriptor(dst, size, 0)}
			ctx.Exec(cycles.SubmitTask)
			if !cB.SubmitCopy(task, false) {
				break // full ring on a dying client: drop, it dies anyway
			}
		}
		// Die at a seed-dependent point in the run.
		ctx.Exec(sim.Time(100+seed%400) * cycles.CyclesPerMicrosecond)
		svc.KillClient(cB)
	})
	env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(benchCtx{p}, 0) })
	if err := env.Run(sim.Infinity); err != nil {
		panic(err)
	}

	res := chaosResult{
		dmaFaults:  svc.Stats.DMAFaults,
		cpuFaults:  svc.Stats.CPUFaults,
		retried:    svc.Stats.RetriedChunks,
		fallbackKB: svc.Stats.FallbackBytes >> 10,
		teardowns:  svc.Stats.ClientTeardowns,
		reclaimed:  svc.Stats.ReclaimedTasks + svc.Stats.AbortedTasks,
		backlog:    svc.Backlog(),
		dataOK:     true,
	}
	for _, j := range jobs {
		if j.task.Err() != nil {
			res.failed++
			continue
		}
		res.executed++
		got := make([]byte, size)
		if err := uasA.ReadAt(j.dst, got); err != nil {
			res.dataOK = false
			continue
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{j.fill}, size)) {
			res.dataOK = false
		}
	}
	for _, q := range []*core.Ring{cA.U.Copy, cA.U.Sync, cA.K.Copy, cA.K.Sync,
		cB.U.Copy, cB.U.Sync, cB.K.Copy, cB.K.Sync} {
		res.ringSlots += q.Len()
	}
	for _, as := range []*mem.AddrSpace{uasA, uasB, kas} {
		res.leakedPins += as.AuditLeaks().PinCount
	}
	return res
}

// runChaos reports one row per seed.
func runChaos(s Scale) []*Table {
	tasks := 24
	seeds := []uint64{2, 11}
	if s == Full {
		tasks = 96
		seeds = []uint64{2, 11, 23, 47, 101, 333}
	}
	t := &Table{ID: "chaos", Title: "Fault injection + client death over the copy service (deterministic per seed)",
		Columns: []string{"seed", "tasks", "ok", "failed", "dmaFault", "cpuFault", "retried", "fallbackKB", "teardown", "reclaimed", "leakPins", "ringLeak", "backlog", "verify"}}
	rs := make([]chaosResult, len(seeds))
	sim.RunJobs(len(seeds), parWorkers, func(jc *sim.JobCtx) {
		rs[jc.Index()] = chaosRun(jc.NewEnv(), seeds[jc.Index()], tasks)
	})
	for i, seed := range seeds {
		r := rs[i]
		verify := "ok"
		if !r.dataOK {
			verify = "CORRUPT"
		}
		t.AddRow(fmt.Sprintf("%d", seed), fmt.Sprintf("%d", tasks),
			fmt.Sprintf("%d", r.executed), fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%d", r.dmaFaults), fmt.Sprintf("%d", r.cpuFaults),
			fmt.Sprintf("%d", r.retried), fmt.Sprintf("%d", r.fallbackKB),
			fmt.Sprintf("%d", r.teardowns), fmt.Sprintf("%d", r.reclaimed),
			fmt.Sprintf("%d", r.leakedPins), fmt.Sprintf("%d", r.ringSlots),
			fmt.Sprintf("%d", r.backlog), verify)
	}
	t.Note("rates: DMA fail 8%% / stall 6%%, CPU fail 0.4%% / stall 1%%; victim client killed at a seed-dependent time")
	t.Note("invariant columns leakPins/ringLeak/backlog must be 0 and verify must be ok")
	return []*Table{t}
}
