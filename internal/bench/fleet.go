// The fleet experiment: an open-loop, SLO-oriented load test of the
// sharded service. Where fig9 measures peak throughput with a single
// closed-loop client, fleet offers a fixed arrival schedule (arrival.go)
// from many clients spread across the machine's NUMA nodes and reports
// what an operator would watch: tail latency against an SLO, shed
// rate, and per-node engine utilization.

package bench

import (
	"fmt"
	"strings"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

func init() {
	register("fleet", "§6 open-loop fleet SLO", runFleet)
}

// fleetConfig is one row of the fleet table.
type fleetConfig struct {
	name    string
	tp      *topo.Topology
	arrival ArrivalConfig
	// arrivals is the schedule length.
	arrivals int
}

// FleetResult is the measured outcome of one fleet run, consumed by
// the experiment table and the microbench JSON export.
type FleetResult struct {
	Name      string
	Submitted int
	Shed      int
	// Latency quantiles in cycles (submission → completion).
	P50, P99, P999, Mean int64
	// NodeUtil is each node's DMA-engine busy fraction over the run.
	NodeUtil []float64
	// RemoteDMAFrac is the fraction of DMA bytes moved by a non-local
	// engine (steering spill).
	RemoteDMAFrac float64
	// PerNode holds each node's latency histogram.
	PerNode []*obs.Histogram
}

// fleetClient is one open-loop submitter of the fleet experiments.
type fleetClient struct {
	c        *core.Client
	src, dst mem.VA
	as       *mem.AddrSpace
	core     int // submitting core within the client's node
}

// newFleetClients registers ac.Clients clients named prefix-<i>,
// spread round-robin across tp's nodes. Each is homed on its node's
// frames with one submit ring per core of the node, and owns a
// populated source/destination pair as large as ac's largest size;
// group(i) is client i's cgroup (nil: the default group).
func newFleetClients(svc *core.Service, pm *mem.PhysMem, tp *topo.Topology, prefix string, ac ArrivalConfig, group func(i int) *core.CGroupAccount) []fleetClient {
	nn := tp.Nodes()
	maxSize := units.Bytes(0)
	for _, s := range ac.Sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	clients := make([]fleetClient, ac.Clients)
	for i := range clients {
		node := i % nn
		as := mem.NewAddrSpace(pm)
		as.SetHomeNode(node)
		c := svc.NewClientOn(fmt.Sprintf("%s-%d", prefix, i), as, as, group(i), node)
		c.EnableShards(tp.CoresPerNode())
		src := as.MMap(maxSize, mem.PermRead|mem.PermWrite, "s")
		dst := as.MMap(maxSize, mem.PermRead|mem.PermWrite, "d")
		if _, err := as.Populate(src, maxSize, true); err != nil {
			panic(err)
		}
		if _, err := as.Populate(dst, maxSize, true); err != nil {
			panic(err)
		}
		clients[i] = fleetClient{c: c, src: src, dst: dst, as: as,
			core: (i / nn) % tp.CoresPerNode()}
	}
	return clients
}

// fleetRun executes one open-loop run: the whole schedule is drawn
// up front, the driver submits on it regardless of service state, and
// every completion is timed against its scheduled arrival. The caller
// supplies the environment so pooled sweeps can wire each config's
// run to its job's private recorder.
func fleetRun(env *sim.Env, fc fleetConfig) *FleetResult {
	tp := fc.tp
	nn := tp.Nodes()
	pm := mem.NewPhysMem(tp.TotalMem())
	if err := pm.ConfigureNodes(nn); err != nil {
		panic(err)
	}
	svcCfg := core.DefaultConfig()
	svcCfg.Topo = tp
	svc := core.NewService(env, pm, svcCfg)

	clients := newFleetClients(svc, pm, tp, "fleet", fc.arrival, func(int) *core.CGroupAccount { return nil })

	// Draw the schedule and build every task before the clock starts:
	// the submit loop itself must not allocate (§6 methodology — the
	// generator may never slow down because the service is busy).
	arrivals := Schedule(fc.arrival, fc.arrivals)
	res := &FleetResult{Name: fc.name, NodeUtil: make([]float64, nn)}
	hist := &obs.Histogram{}
	perNode := make([]*obs.Histogram, nn)
	for i := range perNode {
		perNode[i] = &obs.Histogram{}
	}
	completed := 0
	doneSig := sim.NewSignal("fleet-done")
	tasks := make([]*core.Task, len(arrivals))
	for i := range arrivals {
		a := arrivals[i]
		fc := clients[a.Client]
		node := fc.c.Node
		at := a.At
		tasks[i] = &core.Task{
			Src: fc.src, Dst: fc.dst, SrcAS: fc.as, DstAS: fc.as, Len: a.Size,
			Desc: core.NewDescriptor(fc.dst, a.Size, core.DefaultSegSize),
			Handler: &core.Handler{Kernel: true, Fn: func() {
				lat := int64(env.Now() - at)
				hist.Observe(lat)
				perNode[node].Observe(lat)
				completed++
				doneSig.Broadcast(env)
			}},
		}
	}

	submitted := 0
	driverDone := false
	env.Go("fleet-driver", func(p *sim.Proc) {
		for i := range arrivals {
			a := arrivals[i]
			if a.At > p.Now() {
				p.Wait(a.At - p.Now())
			}
			fc := clients[a.Client]
			if fc.c.SubmitCopyOn(fc.core, tasks[i]) {
				submitted++
			} else {
				res.Shed++
			}
		}
		driverDone = true
		for completed < submitted {
			doneSig.Wait(p)
		}
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
	if !driverDone || completed < submitted {
		panic(fmt.Sprintf("fleet %s: stalled at %d/%d completions", fc.name, completed, submitted))
	}

	res.Submitted = submitted
	res.P50 = hist.Quantile(0.50)
	res.P99 = hist.Quantile(0.99)
	res.P999 = hist.Quantile(0.999)
	res.Mean = hist.Mean()
	res.PerNode = perNode
	elapsed := env.Now()
	for i, d := range svc.DMAs() {
		if elapsed > 0 {
			res.NodeUtil[i] = float64(d.BusyCycles) / float64(elapsed)
		}
	}
	if svc.Stats.DMABytes > 0 {
		res.RemoteDMAFrac = float64(svc.Stats.RemoteDMABytes) / float64(svc.Stats.DMABytes)
	}
	return res
}

// fleetConfigs returns the standard config sweep at a scale.
func fleetConfigs(s Scale) []fleetConfig {
	clients, arrivals := 48, 400
	if s == Full {
		clients, arrivals = 192, 3000
	}
	sizes := []units.Bytes{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	base := ArrivalConfig{
		Seed:    0xf1ee7,
		MeanGap: 20_000, // ~6.9us between arrivals
		Clients: clients,
		Sizes:   sizes,
	}
	burst := base
	burst.BurstPeriod = 64
	burst.BurstLen = 16
	burst.BurstFactor = 8
	return []fleetConfig{
		{name: "1-node", tp: topo.SingleNode(8, 256<<20), arrival: base, arrivals: arrivals},
		{name: "4-node", tp: topo.NUMA(4, 2, 64<<20), arrival: base, arrivals: arrivals},
		{name: "4-node bursty", tp: topo.NUMA(4, 2, 64<<20), arrival: burst, arrivals: arrivals},
	}
}

// fleetResults runs the config sweep as a job pool: every config is
// an independent simulation, so the rows compute on parWorkers host
// threads with recordings replayed in config order.
func fleetResults(s Scale) []*FleetResult {
	configs := fleetConfigs(s)
	out := make([]*FleetResult, len(configs))
	sim.RunJobs(len(configs), parWorkers, func(jc *sim.JobCtx) {
		out[jc.Index()] = fleetRun(jc.NewEnv(), configs[jc.Index()])
	})
	return out
}

// FleetQuickResults runs the Quick-scale sweep and returns the raw
// results (the microbench JSON export path).
func FleetQuickResults() []*FleetResult {
	return fleetResults(Quick)
}

func runFleet(s Scale) []*Table {
	t := &Table{ID: "fleet", Title: "Open-loop fleet: completion latency vs scheduled arrival (SLO view)",
		Columns: []string{"topology", "submitted", "shed", "p50 us", "p99 us", "p999 us", "node util", "remote DMA"}}
	for _, r := range fleetResults(s) {
		utils := make([]string, len(r.NodeUtil))
		for i, u := range r.NodeUtil {
			utils[i] = fmt.Sprintf("%.0f%%", u*100)
		}
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Submitted),
			fmt.Sprintf("%d", r.Shed),
			fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.P50))),
			fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.P99))),
			fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.P999))),
			strings.Join(utils, "/"),
			fmt.Sprintf("%.1f%%", r.RemoteDMAFrac*100))
	}
	t.Note("open loop: arrivals are scheduled ahead of the run (seeded Poisson%s), so queueing delay shows up in the tail instead of slowing the generator", "; bursty = 16-arrival bursts at 8x rate every 64")
	t.Note("quantiles are histogram bucket upper bounds; node util is DMA-engine busy fraction")
	return []*Table{t}
}
