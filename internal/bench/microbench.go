package bench

import (
	"fmt"
	"runtime"
	"testing"

	"copier/internal/acopy"
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
)

// MicroResult is one hot-path microbenchmark data point, serialized
// into BENCH_results.json by `copierbench -benchjson` (see `make
// bench`). NsPerOp and AllocsPerOp track the simulator/service/acopy
// fast paths; SimBytesPerSec reports payload bytes moved per wall
// second for the benchmarks that copy data (simulated bytes for the
// service workload, real bytes for the acopy runtime) and is zero for
// pure scheduling benchmarks.
type MicroResult struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	AllocBytesPerOp int64   `json:"alloc_bytes_per_op"`
	SimBytesPerSec  float64 `json:"sim_bytes_per_sec,omitempty"`
}

// FleetSLO is the open-loop fleet experiment's SLO summary for one
// topology configuration: completion-latency quantiles against the
// scheduled arrivals, shed count, and per-node DMA engine
// utilization. Emitted alongside the microbenchmarks so latency-tail
// regressions in the sharded service show up in trend tracking, not
// just throughput regressions.
type FleetSLO struct {
	Config        string    `json:"config"`
	Submitted     int       `json:"submitted"`
	Shed          int       `json:"shed"`
	P50Us         float64   `json:"p50_us"`
	P99Us         float64   `json:"p99_us"`
	P999Us        float64   `json:"p999_us"`
	MeanUs        float64   `json:"mean_us"`
	NodeUtil      []float64 `json:"node_util"`
	RemoteDMAFrac float64   `json:"remote_dma_frac"`
}

// ChaosSLO is the chaosfleet experiment's degraded-mode summary for
// one configuration: terminal-state accounting (the zero-loss
// invariant), shed counts by reason, tail latency of accepted work,
// and time-to-recover after the permanent engine death. Emitted
// alongside the microbenchmarks so resilience regressions (loss,
// unbounded degradation, slower recovery) show up in trend tracking.
type ChaosSLO struct {
	Config        string  `json:"config"`
	Accepted      int     `json:"accepted"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"`
	DeadlineShed  int     `json:"deadline_shed"`
	Failed        int     `json:"failed"`
	Lost          int     `json:"lost"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	DegradedP99Us float64 `json:"degraded_p99_us,omitempty"`
	EngineDeaths  int64   `json:"engine_deaths"`
	Resteered     int64   `json:"resteered"`
	Quarantines   int64   `json:"quarantines"`
	RecoverUs     float64 `json:"recover_us,omitempty"`
}

// ParallelResult is one point of the parallel-speedup series: the
// fig9 experiment at Quick scale, whose cells run through the job pool
// (sim.RunJobs), timed at a host worker count. The simulated work and
// the output bytes are identical at every point — the 4-worker golden
// reruns enforce that — so NsPerOp isolates the wall-clock effect of
// the pool. Speedup is relative to the series' serial point on the
// same host and is bounded above by the CPU count. A worker count
// above the host's CPU count would time-slice, not scale, so that
// point is not timed: Unmeasured names the CPU count instead.
type ParallelResult struct {
	Workers    int     `json:"workers"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Unmeasured string  `json:"unmeasured,omitempty"`
}

// MicroReport is the top-level BENCH_results.json document.
type MicroReport struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	// CPUs records the host's logical CPU count — the context needed
	// to judge the parallel series (a single-CPU host cannot speed
	// up, however independent the pool's jobs are).
	CPUs     int              `json:"cpus"`
	Results  []MicroResult    `json:"results"`
	Fleet    []FleetSLO       `json:"fleet,omitempty"`
	Chaos    []ChaosSLO       `json:"chaos,omitempty"`
	Parallel []ParallelResult `json:"parallel,omitempty"`
}

func micro(name string, simBytesPerOp int64, fn func(b *testing.B)) MicroResult {
	r := testing.Benchmark(fn)
	m := MicroResult{
		Name:            name,
		Iterations:      r.N,
		NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:     r.AllocsPerOp(),
		AllocBytesPerOp: r.AllocedBytesPerOp(),
	}
	if simBytesPerOp > 0 && r.T > 0 {
		m.SimBytesPerSec = float64(simBytesPerOp) * float64(r.N) / r.T.Seconds()
	}
	return m
}

// pollingCtx is benchCtx whose NAPI sleep ends at once, as if a
// doorbell rang, so an idle service thread sweeps without pause.
type pollingCtx struct{ benchCtx }

func (pollingCtx) BlockTimeout(*sim.Signal, sim.Time) bool { return true }

// idleSweeps benchmarks idle polling: a service sharded over nodes
// NUMA nodes, one polling thread per node, and 24 two-core sharded
// clients with nothing queued, the state a fleet thread spends most
// sweeps in. The threads' NAPI sleeps end at once, so they busy-poll
// for the whole run; one op is one 100-cycle sweep period. Every quiet
// sweep declares an idle stretch, so the event loop skips the threads'
// sweeps in bulk up to each NAPI budget (sim.Env.DeclareIdle); what is
// left per op is the share of one budget's sleep and full sweep.
func idleSweeps(nodes int) func(b *testing.B) {
	return func(b *testing.B) {
		env := sim.NewEnv()
		cfg := core.DefaultConfig()
		cfg.Topo = topo.NUMA(nodes, 2, 1<<20)
		pm := mem.NewPhysMem(cfg.Topo.TotalMem())
		if err := pm.ConfigureNodes(nodes); err != nil {
			b.Fatal(err)
		}
		svc := core.NewService(env, pm, cfg)
		as := mem.NewAddrSpace(pm)
		for i := 0; i < 24; i++ {
			svc.NewClientOn("idle", as, as, nil, i%nodes).EnableShards(2)
		}
		for slot := 0; slot < nodes; slot++ {
			env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(pollingCtx{benchCtx{p}}, slot) })
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := env.Run(sim.Time(b.N) * (cycles.PollIteration + cycles.SchedulePick)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		svc.Stop()
		if err := env.Run(env.Now() + cycles.XSave); err != nil {
			b.Fatal(err)
		}
	}
}

// serveBesideIdle benchmarks a serving thread beside idle ones: a
// 4-node service whose node-0 thread serves back-to-back 64 KB copies
// while the other three nodes' threads poll with nothing queued (their
// NAPI sleeps end at once, as in idleSweeps). One op is one copy,
// submitted once the last one completed. The serving thread's waits
// are Proc.Wait: each one that only idle sweeps precede skips them and
// moves the clock without a coroutine switch.
func serveBesideIdle(b *testing.B) {
	const nodes, size = 4, 64 << 10
	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Topo = topo.NUMA(nodes, 2, 4<<20)
	pm := mem.NewPhysMem(cfg.Topo.TotalMem())
	if err := pm.ConfigureNodes(nodes); err != nil {
		b.Fatal(err)
	}
	svc := core.NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	cl := svc.NewClientOn("serve", as, as, nil, 0)
	for i := 1; i < nodes; i++ {
		svc.NewClientOn("idle", mem.NewAddrSpace(pm), nil, nil, i)
	}
	src := as.MMap(size, mem.PermRead|mem.PermWrite, "s")
	dst := as.MMap(size, mem.PermRead|mem.PermWrite, "d")
	for _, va := range []mem.VA{src, dst} {
		if _, err := as.Populate(va, size, true); err != nil {
			b.Fatal(err)
		}
	}
	task := &core.Task{Src: src, Dst: dst, SrcAS: as, DstAS: as, Len: size}
	for slot := 0; slot < nodes; slot++ {
		env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(pollingCtx{benchCtx{p}}, slot) })
	}
	n := b.N
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			task.Reuse()
			cl.SubmitCopy(task, false)
			for !task.Executed() {
				cl.Progress.Wait(p)
			}
		}
		svc.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(sim.Infinity); err != nil {
		b.Fatal(err)
	}
}

// RunMicrobenches runs the hot-path microbenchmarks covering the three
// layers this repo optimizes — the simulator event queue, the service
// ring/dispatch path, and the acopy userspace runtime — and returns
// their results. These mirror the Benchmark* functions in the package
// test files so the same numbers are reproducible with `go test
// -bench`; this entry point exists so a normal binary can emit them as
// JSON for trend tracking.
func RunMicrobenches() MicroReport {
	var results []MicroResult

	// Simulator: one Schedule plus the Run loop that pops and fires it
	// (mirrors sim.BenchmarkEventSchedulePop).
	results = append(results, micro("sim/event-schedule-pop", 0, func(b *testing.B) {
		e := sim.NewEnv()
		nop := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(1, nop)
			if err := e.Run(sim.Infinity); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Simulator: sustained 64-deep event queue with pseudo-random
	// reinsertion (mirrors sim.BenchmarkEventLoopDepth64) — the
	// steady-state heap load of a busy service run.
	results = append(results, micro("sim/event-loop-depth64", 0, func(b *testing.B) {
		e := sim.NewEnv()
		const depth = 64
		fired := 0
		n := b.N
		rnd := uint64(1)
		next := func() sim.Time {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			// 1..1024: Schedule rejects nothing, but a zero delay
			// would re-fire at the same instant and skew the depth.
			return sim.Time(rnd%1024 + 1)
		}
		var fn func()
		fn = func() {
			fired++
			if fired <= n {
				e.Schedule(next(), fn)
			}
		}
		for i := 0; i < depth; i++ {
			e.Schedule(next(), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(sim.Infinity); err != nil {
			b.Fatal(err)
		}
	}))

	// Simulator: coroutine handoff (mirrors sim.BenchmarkProcPingPong).
	results = append(results, micro("sim/proc-ping-pong", 0, func(b *testing.B) {
		e := sim.NewEnv()
		n := b.N
		for p := 0; p < 2; p++ {
			e.Go("p", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Wait(1)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(sim.Infinity); err != nil {
			b.Fatal(err)
		}
	}))

	// Simulator: a lone sleeper, whose every Wait takes the
	// switch-free path (mirrors sim.BenchmarkProcWaitSolo);
	// sim/proc-ping-pong is the control that still switches.
	results = append(results, micro("sim/proc-wait-solo", 0, func(b *testing.B) {
		e := sim.NewEnv()
		n := b.N
		e.Go("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Wait(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(sim.Infinity); err != nil {
			b.Fatal(err)
		}
	}))

	// Memory: a default-size (256 MB) machine's physical memory, whose
	// frames materialize on first touch (mirrors mem.BenchmarkNewPhysMem).
	var pm *mem.PhysMem
	results = append(results, micro("mem/new-physmem-256m", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pm = mem.NewPhysMem(256 << 20)
		}
	}))
	runtime.KeepAlive(pm)

	// Memory: fleet-numa's set-up working set, 12,288 pages over 4
	// nodes (96 address spaces homed round-robin, 128 pages each),
	// demand-faulted one page at a time into a fresh machine (mirrors
	// mem.BenchmarkPopulate/12k-4node).
	results = append(results, micro("mem/populate-12k-4node", 0, func(b *testing.B) {
		const nodes, spaces, size = 4, 96, 128 * mem.PageSize
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pm := mem.NewPhysMem(256 << 20)
			if err := pm.ConfigureNodes(nodes); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for s := 0; s < spaces; s++ {
				as := mem.NewAddrSpace(pm)
				as.SetHomeNode(s % nodes)
				va := as.MMap(size, mem.PermRead|mem.PermWrite, "buf")
				if _, err := as.Populate(va, size, true); err != nil {
					b.Fatal(err)
				}
			}
		}
	}))

	// Service ring: batched drain — 16 publishes, one PopN, one tail
	// update (mirrors core.BenchmarkRingPopN; one op = one 16-task
	// round).
	results = append(results, micro("core/ring-popn16", 0, func(b *testing.B) {
		r := core.NewRing(1024)
		t := &core.Task{}
		var buf [16]*core.Task
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 16; j++ {
				r.Push(t)
			}
			if got := r.PopN(buf[:]); got != 16 {
				b.Fatalf("PopN = %d", got)
			}
		}
	}))

	// ATCache: one InsertW of a new key into a full 4,096-entry cache,
	// so every op evicts the LRU entry (mirrors
	// core.BenchmarkATCacheInsertEvict).
	results = append(results, micro("core/atcache-insert-evict", 0, func(b *testing.B) {
		as := mem.NewAddrSpace(mem.NewPhysMem(1 << 20))
		c := core.NewATCache(4096)
		for vpn := uint64(0); vpn < 4096; vpn++ {
			c.InsertW(as, vpn, mem.Frame(vpn), true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vpn := uint64(4096 + i)
			c.InsertW(as, vpn, mem.Frame(vpn), true)
		}
	}))

	// Idle polling, and a serving thread beside three idle ones
	// (mirror BenchmarkIdleSweep and BenchmarkServeBesideIdle).
	results = append(results,
		micro("core/idle-sweep", 0, idleSweeps(1)),
		micro("core/idle-sweep-4node", 0, idleSweeps(4)),
		micro("core/serve-64k-beside-3-idle", 64<<10, serveBesideIdle))

	// Service end-to-end: one op drives 40 back-to-back 64KB copies
	// through submit → admit → dispatch → completion on the simulated
	// machine; SimBytesPerSec is simulated payload per wall second, the
	// figure of merit for the whole dispatch stack. The world (env,
	// page tables, descriptors, buffers) persists across ops and the
	// task objects are recycled with Task.Reuse, so AllocsPerOp
	// measures the steady-state dispatch path, not setup.
	const svcSize, svcTasks = 64 << 10, 40
	results = append(results, micro("service/throughput-64k", svcSize*svcTasks, func(b *testing.B) {
		ss := newSteadyService(svcSize, svcTasks)
		defer ss.Close()
		ss.Op() // warm the dispatch-path scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ss.Op()
		}
	}))

	// acopy runtime: pooled-handle submit → worker copy → Wait →
	// Release round-trip at two sizes on one worker (mirrors
	// acopy.BenchmarkAMemcpyWait); real bytes moved per wall second.
	for _, size := range []int{4 << 10, 64 << 10} {
		name := "acopy/amemcpy-4k"
		if size == 64<<10 {
			name = "acopy/amemcpy-64k"
		}
		size := size
		results = append(results, micro(name, int64(size), func(b *testing.B) {
			cp := acopy.New(1)
			defer cp.Close()
			src := make([]byte, size)
			dst := make([]byte, size)
			for i := range src {
				src[i] = byte(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := cp.AMemcpy(dst, src)
				h.Wait()
				h.Release()
			}
		}))
	}

	// Fleet SLO summary: the Quick-scale open-loop sweep (fleet.go),
	// reported in microseconds. Simulated time, so the numbers are
	// machine-independent and byte-stable run to run.
	var fleet []FleetSLO
	for _, r := range FleetQuickResults() {
		fleet = append(fleet, FleetSLO{
			Config:        r.Name,
			Submitted:     r.Submitted,
			Shed:          r.Shed,
			P50Us:         cycles.ToMicroseconds(sim.Time(r.P50)),
			P99Us:         cycles.ToMicroseconds(sim.Time(r.P99)),
			P999Us:        cycles.ToMicroseconds(sim.Time(r.P999)),
			MeanUs:        cycles.ToMicroseconds(sim.Time(r.Mean)),
			NodeUtil:      r.NodeUtil,
			RemoteDMAFrac: r.RemoteDMAFrac,
		})
	}

	// Chaosfleet degraded-mode SLO summary: the Quick-scale worst-day
	// sweep (chaosfleet.go). Simulated time, byte-stable run to run.
	var chaos []ChaosSLO
	for _, r := range ChaosFleetQuickResults() {
		chaos = append(chaos, ChaosSLO{
			Config:        r.Name,
			Accepted:      r.Accepted,
			Completed:     r.Completed,
			Rejected:      r.Rejected,
			DeadlineShed:  r.DeadlineShed,
			Failed:        r.Failed,
			Lost:          r.Lost,
			P50Us:         cycles.ToMicroseconds(sim.Time(r.P50)),
			P99Us:         cycles.ToMicroseconds(sim.Time(r.P99)),
			DegradedP99Us: cycles.ToMicroseconds(sim.Time(r.DegradedP99)),
			EngineDeaths:  r.EngineDeaths,
			Resteered:     r.Resteered,
			Quarantines:   r.Quarantines,
			RecoverUs:     cycles.ToMicroseconds(r.TimeToRecover),
		})
	}

	// Job pool: wall-clock fig9 at Quick scale at increasing host
	// worker counts. The per-point simulation is identical; only the
	// host threading changes.
	fig9, _ := ByID("fig9")
	prevWorkers := parWorkers
	var parallel []ParallelResult
	var serialNs float64
	for _, w := range []int{1, 2, 4} {
		if w > runtime.NumCPU() {
			parallel = append(parallel, ParallelResult{Workers: w, Unmeasured: fmt.Sprintf("%d CPUs", runtime.NumCPU())})
			continue
		}
		SetWorkers(w)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig9.Run(Quick)
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if w == 1 {
			serialNs = ns
		}
		pr := ParallelResult{Workers: w, NsPerOp: ns}
		if serialNs > 0 {
			pr.Speedup = serialNs / ns
		}
		parallel = append(parallel, pr)
	}
	SetWorkers(prevWorkers)

	return MicroReport{
		Schema:   "copier-microbench/v1",
		Go:       runtime.Version(),
		CPUs:     runtime.NumCPU(),
		Results:  results,
		Fleet:    fleet,
		Chaos:    chaos,
		Parallel: parallel,
	}
}
