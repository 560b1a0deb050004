// The chaosfleet experiment: the fleet's worst day. The same
// open-loop arrival methodology as fleet.go, plus the three failure
// modes the resilience layer exists for, all in one run: a permanent
// DMA-engine death mid-schedule, a sustained overload window (gaps
// compressed to a multiple of the offered load), and a burst of
// transient engine faults dense enough to quarantine engines and
// exercise half-open probe re-admission. The report is what an
// operator triages after the incident: goodput, shed rate by reason,
// tail latency of the work that was accepted, and time-to-recover
// after the death. Accepted tasks are never silently lost — every one
// either completes or carries a definite error.

package bench

import (
	"fmt"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/fault"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

func init() {
	register("chaosfleet", "worst-day fleet: engine death + overload + shedding", runChaosFleet)
}

// chaosFleetConfig is one row of the chaosfleet table.
type chaosFleetConfig struct {
	name     string
	tp       *topo.Topology
	arrival  ArrivalConfig
	arrivals int

	// Overload window: arrivals in [overloadFrom, overloadTo) have
	// their inter-arrival gaps divided by overloadFactor (a sustained
	// open-loop burst; 0/1 disables).
	overloadFrom, overloadTo int
	overloadFactor           sim.Time

	// killNth, when >= 0, pins a permanent failure on the killNth DMA
	// descriptor (fault.Rule with Perm): the engine serving it dies
	// with the descriptor in flight, so the re-steering path is
	// exercised by construction — the killer chunk itself, plus
	// whatever was queued behind it, completes with hw.ErrEngineDead
	// and must find another engine.
	killNth int

	// Transient-fault shape: rates for background noise plus a
	// contiguous rule burst [burstFrom, burstTo) of forced SiteDMA
	// failures — long enough to drive engines into quarantine.
	faultSeed          uint64
	rates              fault.Rates
	burstFrom, burstTo int

	// deadline, when nonzero, stamps every task with an SLO deadline
	// this far after its scheduled arrival.
	deadline sim.Time

	// Admission/brownout knobs copied onto the service config.
	maxPending        int
	brownoutHigh      int64
	brownoutShedBelow int64
}

// ChaosFleetResult is the measured outcome of one chaosfleet run.
type ChaosFleetResult struct {
	Name string
	// Accepted is the ring-accepted submission count; RingShed counts
	// open-loop drops at a full shard ring (before admission).
	Accepted, RingShed int
	// Terminal outcome classes over accepted tasks. Lost is accepted
	// tasks with no terminal state at the end of the run — the
	// zero-loss invariant requires it to be 0.
	Completed, Rejected, DeadlineShed, Failed, Lost int
	// Latency quantiles (cycles, scheduled arrival → completion) over
	// completed tasks; DegradedP99 covers only completions inside the
	// post-death degradation window.
	P50, P99, Mean, DegradedP99 int64
	// Recovery: engine-death time, first post-death instant the service
	// backlog drained below the recovery watermark, and the difference.
	KillAt, RecoveredAt, TimeToRecover sim.Time
	// MaxBacklog is the peak service backlog observed (bytes).
	MaxBacklog int64
	// LeakedPins is the end-of-run pin audit across every client
	// address space; shed, failed, and re-steered tasks must all have
	// dropped their pins, so any nonzero value is a bug.
	LeakedPins int
	// Service-side resilience counters (see core.Stats).
	EngineDeaths, Resteered      int64
	Quarantines, ProbeRecoveries int64
	OverloadShedN, BrownoutShedN int64
	BrownoutEntries              int64
}

// compressWindow rescales the inter-arrival gaps of arr[from:to] by
// 1/factor, preserving every gap outside the window: a sustained
// overload burst carved into an otherwise unchanged schedule.
func compressWindow(arr []Arrival, from, to int, factor sim.Time) {
	if factor <= 1 || from >= to {
		return
	}
	var prev, out sim.Time
	for i := range arr {
		gap := arr[i].At - prev
		prev = arr[i].At
		if i >= from && i < to {
			gap /= factor
			if gap < 1 {
				gap = 1
			}
		}
		out += gap
		arr[i].At = out
	}
}

// chaosFleetRun executes one worst-day run. Structure follows
// fleetRun, with three additions: a reaper process that kills an
// engine mid-run, a monitor process sampling backlog for the
// time-to-recover measurement, and a terminal-state wait that counts
// shed and failed tasks as done (their handlers never run — the copy
// never happened).
func chaosFleetRun(env *sim.Env, cc chaosFleetConfig) *ChaosFleetResult {
	tp := cc.tp
	nn := tp.Nodes()
	pm := mem.NewPhysMem(tp.TotalMem())
	if err := pm.ConfigureNodes(nn); err != nil {
		panic(err)
	}
	svcCfg := core.DefaultConfig()
	svcCfg.Topo = tp
	svcCfg.MaxPending = cc.maxPending
	svcCfg.BrownoutHigh = cc.brownoutHigh
	svcCfg.BrownoutShedBelow = cc.brownoutShedBelow
	// Short probe period: the worst day quarantines every engine at
	// once, and re-admission should be bounded by the fault burst's
	// length, not by a conservative production probe cadence.
	svcCfg.QuarantineProbe = 50 * cycles.CyclesPerMicrosecond
	svc := core.NewService(env, pm, svcCfg)
	if cc.rates != (fault.Rates{}) || cc.burstTo > cc.burstFrom || cc.killNth >= 0 {
		inj := fault.New(cc.faultSeed).SetRates(fault.SiteDMA, cc.rates)
		for i := cc.burstFrom; i < cc.burstTo; i++ {
			inj.AddRule(fault.Rule{Site: fault.SiteDMA, Nth: uint64(i), Outcome: fault.Outcome{Fail: true}})
		}
		if cc.killNth >= 0 {
			inj.AddRule(fault.Rule{Site: fault.SiteDMA, Nth: uint64(cc.killNth), Outcome: fault.Outcome{Perm: true}})
		}
		svc.SetFaultInjector(inj)
	}

	// Clients alternate between a production group and a low-shares
	// batch group — the brownout controller's shed order is by shares,
	// so the batch half is the sacrificial class.
	prod := svc.Group("prod", 100)
	batch := svc.Group("batch", 10)
	clients := newFleetClients(svc, pm, tp, "chaos", cc.arrival, func(i int) *core.CGroupAccount {
		if i%2 == 1 {
			return batch
		}
		return prod
	})

	arrivals := Schedule(cc.arrival, cc.arrivals)
	compressWindow(arrivals, cc.overloadFrom, cc.overloadTo, cc.overloadFactor)

	res := &ChaosFleetResult{Name: cc.name}
	hist := &obs.Histogram{}
	// Completion timestamps and latencies, recorded by the (kernel)
	// completion handlers into preallocated arrays so the hot path
	// allocates nothing; the degradation-window quantile is computed
	// after the run, once the window's end is known.
	compAt := make([]sim.Time, len(arrivals))
	compLat := make([]int64, len(arrivals))
	nComp := 0
	doneSig := sim.NewSignal("chaosfleet-done")
	tasks := make([]*core.Task, len(arrivals))
	accepted := make([]bool, len(arrivals))
	for i := range arrivals {
		a := arrivals[i]
		ch := clients[a.Client]
		at := a.At
		t := &core.Task{
			Src: ch.src, Dst: ch.dst, SrcAS: ch.as, DstAS: ch.as, Len: a.Size,
			Desc: core.NewDescriptor(ch.dst, a.Size, core.DefaultSegSize),
			Handler: &core.Handler{Kernel: true, Fn: func() {
				lat := int64(env.Now() - at)
				hist.Observe(lat)
				compAt[nComp] = env.Now()
				compLat[nComp] = lat
				nComp++
				doneSig.Broadcast(env)
			}},
		}
		if cc.deadline > 0 {
			t.Deadline = a.At + cc.deadline
		}
		tasks[i] = t
	}

	const pollGap = 5 * cycles.CyclesPerMicrosecond
	// recoverBelow is the backlog watermark defining "recovered": the
	// first post-death sample under it ends the degradation window.
	const recoverBelow = 256 << 10
	monitorStop := false
	env.Go("chaos-monitor", func(p *sim.Proc) {
		for !monitorStop {
			b := svc.Backlog()
			if b > res.MaxBacklog {
				res.MaxBacklog = b
			}
			if res.KillAt == 0 {
				for _, d := range svc.DMAs() {
					if d.Dead() {
						res.KillAt = d.DiedAt()
						break
					}
				}
			}
			if res.KillAt > 0 && res.RecoveredAt == 0 && p.Now() > res.KillAt && b < recoverBelow {
				res.RecoveredAt = p.Now()
			}
			p.Wait(pollGap)
		}
	})

	driverDone := false
	env.Go("chaosfleet-driver", func(p *sim.Proc) {
		for i := range arrivals {
			a := arrivals[i]
			if a.At > p.Now() {
				p.Wait(a.At - p.Now())
			}
			ch := clients[a.Client]
			if ch.c.SubmitCopyOn(ch.core, tasks[i]) {
				accepted[i] = true
				res.Accepted++
			} else {
				res.RingShed++
			}
		}
		// Wait for every accepted task to reach a terminal state.
		// Completion handlers only run for successful tasks; shed and
		// failed ones terminate via Executed/Aborted with a definite
		// error, so the wait polls the task states rather than counting
		// handler invocations.
		for {
			term := 0
			for i, t := range tasks {
				if accepted[i] && (t.Executed() || t.Aborted()) {
					term++
				}
			}
			if term >= res.Accepted {
				break
			}
			p.Wait(pollGap)
		}
		driverDone = true
		monitorStop = true
		svc.Stop()
	})
	for slot := 0; slot < nn; slot++ {
		slot := slot
		env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(benchCtx{p}, slot) })
	}
	if err := env.Run(100_000_000_000); err != nil {
		if _, ok := err.(*sim.DeadlockError); !ok {
			panic(err)
		}
	}
	if !driverDone {
		panic(fmt.Sprintf("chaosfleet %s: run ended with driver still waiting", cc.name))
	}

	// Classify terminal states. Lost must end at zero: acceptance into
	// the service means the task completes or fails definitely, even
	// across a permanent engine death.
	for i, t := range tasks {
		if !accepted[i] {
			continue
		}
		switch {
		case !t.Executed() && !t.Aborted():
			res.Lost++
		case t.Err() == nil:
			res.Completed++
		case t.Err() == core.ErrOverload:
			res.Rejected++
		case t.Err() == core.ErrDeadline:
			res.DeadlineShed++
		default:
			res.Failed++
		}
	}
	for i := range clients {
		res.LeakedPins += clients[i].as.AuditLeaks().PinCount
	}
	res.P50 = hist.Quantile(0.50)
	res.P99 = hist.Quantile(0.99)
	res.Mean = hist.Mean()
	if res.KillAt > 0 {
		end := env.Now()
		if res.RecoveredAt > 0 {
			end = res.RecoveredAt
			res.TimeToRecover = res.RecoveredAt - res.KillAt
		}
		dh := &obs.Histogram{}
		for i := 0; i < nComp; i++ {
			if compAt[i] >= res.KillAt && compAt[i] <= end {
				dh.Observe(compLat[i])
			}
		}
		res.DegradedP99 = dh.Quantile(0.99)
	}
	res.EngineDeaths = svc.Stats.EngineDeaths
	res.Resteered = svc.Stats.ResteeredChunks
	res.Quarantines = svc.Stats.Quarantines
	res.ProbeRecoveries = svc.Stats.ProbeRecoveries
	res.OverloadShedN = svc.Stats.OverloadShed
	res.BrownoutShedN = svc.Stats.BrownoutShed
	res.BrownoutEntries = svc.Stats.BrownoutEntries
	return res
}

// chaosFleetConfigs returns the two-row sweep: an unloaded baseline
// (same schedule, no chaos — the reference p99) and the worst day.
func chaosFleetConfigs(s Scale) []chaosFleetConfig {
	clients, arrivals := 16, 700
	if s == Full {
		clients, arrivals = 64, 3000
	}
	arrival := ArrivalConfig{
		Seed:    0xc4a05,
		MeanGap: 20_000,
		Clients: clients,
		Sizes:   []units.Bytes{4 << 10, 16 << 10, 64 << 10, 256 << 10},
	}
	tp := topo.NUMA(4, 2, 64<<20)
	base := chaosFleetConfig{
		name: "baseline", tp: tp, arrival: arrival, arrivals: arrivals,
		killNth: -1,
	}
	worst := base
	worst.name = "worst-day"
	// Sustained 6x overload across the middle third of the schedule.
	worst.overloadFrom = arrivals / 3
	worst.overloadTo = arrivals/3 + arrivals/3
	worst.overloadFactor = 6
	// One engine dies permanently mid-overload: the descriptor that
	// draws the pinned Perm outcome kills whichever engine is serving
	// it, in flight, with the overload window's queue behind it.
	worst.killNth = arrivals / 3
	// Background transient faults plus a forced failure burst dense
	// enough to quarantine engines and exercise probe re-admission.
	worst.faultSeed = 0xbad0da7
	worst.rates = fault.Rates{FailPpm: 20_000}
	worst.burstFrom = 120
	worst.burstTo = 220
	// Every task carries an SLO deadline; overload-window stragglers
	// are shed instead of served dead.
	worst.deadline = 60 * cycles.CyclesPerMicrosecond
	worst.maxPending = 48
	worst.brownoutHigh = 3 << 19
	worst.brownoutShedBelow = 50
	return []chaosFleetConfig{base, worst}
}

func chaosFleetResults(s Scale) []*ChaosFleetResult {
	configs := chaosFleetConfigs(s)
	out := make([]*ChaosFleetResult, len(configs))
	sim.RunJobs(len(configs), parWorkers, func(jc *sim.JobCtx) {
		out[jc.Index()] = chaosFleetRun(jc.NewEnv(), configs[jc.Index()])
	})
	return out
}

// ChaosFleetQuickResults runs the Quick-scale sweep (the microbench
// JSON export path).
func ChaosFleetQuickResults() []*ChaosFleetResult {
	return chaosFleetResults(Quick)
}

func runChaosFleet(s Scale) []*Table {
	t := &Table{ID: "chaosfleet", Title: "Worst-day fleet: permanent engine death + overload + SLO shedding",
		Columns: []string{"config", "accepted", "done", "shed o/d/b", "failed", "lost",
			"p50 us", "p99 us", "deg p99 us", "deaths", "resteer", "recover us"}}
	for _, r := range chaosFleetResults(s) {
		recover := "-"
		if r.TimeToRecover > 0 {
			recover = fmt.Sprintf("%.0f", cycles.ToMicroseconds(r.TimeToRecover))
		}
		degp99 := "-"
		if r.DegradedP99 > 0 {
			degp99 = fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.DegradedP99)))
		}
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Accepted),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d/%d/%d", int(r.OverloadShedN), r.DeadlineShed, int(r.BrownoutShedN)),
			fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.P50))),
			fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.P99))),
			degp99,
			fmt.Sprintf("%d", r.EngineDeaths),
			fmt.Sprintf("%d", r.Resteered),
			recover)
	}
	t.Note("worst-day = 6x overload window + one engine dying permanently mid-window (in-flight descriptor draws a pinned Perm fault) + transient fault burst; shed o/d/b = admission overload / SLO deadline / brownout priority")
	t.Note("lost must be 0: accepted tasks either complete or fail with a definite error — engine death never silently drops work")
	return []*Table{t}
}
