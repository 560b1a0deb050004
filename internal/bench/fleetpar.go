// The fleetpar experiment: the fleet workload restructured for the
// sharded parallel event loop. Where fleet runs one simulation
// environment for the whole machine, fleetpar gives every NUMA node
// its own shard — an independent environment with its own service,
// DMA engine and arrival stream — and coordinates the shards with a
// conservative lookahead window (sim.ShardSet). A fixed fraction of
// each shard's arrivals are remote: forwarded to the next node over
// the simulated interconnect with delay >= the lookahead, which is
// exactly the NIC-submit-plus-transfer latency floor that makes the
// windows safe. Output is byte-identical at every worker count; wall
// clock is what the parallel-speedup microbench series measures.
package bench

import (
	"fmt"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

func init() {
	register("fleetpar", "§6 sharded fleet on the parallel event loop", runFleetPar)
}

// FleetParResult is the outcome of one sharded fleet run; identical
// for every worker count by construction.
type FleetParResult struct {
	Shards    int
	Workers   int
	Lookahead sim.Time
	// Windows/Cross report the conservative engine's work: lookahead
	// windows executed and cross-shard events delivered.
	Windows int64
	Cross   int64
	// Submitted/Remote/Completed count tasks; Shed counts arrivals
	// dropped on a full ring.
	Submitted int64
	Remote    int64
	Completed int64
	Shed      int64
	// Latency quantiles in cycles, merged across shards in shard
	// order (submission at the serving shard → completion).
	P50, P99, Mean int64
}

// fleetParCell is one shard's world: environment, service, client,
// buffers, schedule, and completion accounting.
type fleetParCell struct {
	env      *sim.Env
	svc      *core.Service
	client   *core.Client
	as       *mem.AddrSpace
	src, dst mem.VA
	hist     *obs.Histogram
	arrivals []Arrival
	// expected is how many completions this shard's service must see
	// before it may stop (local non-remote arrivals + inbound
	// remotes); shed submissions decrement it.
	expected  int64
	completed int64
	shed      int64
	// submitted/remote count this shard's own arrivals (touched only
	// by its driver, so the counters stay shard-private under
	// parallel windows).
	submitted int64
	remote    int64
}

func (c *fleetParCell) maybeStop() {
	if c.completed >= c.expected {
		c.svc.Stop()
	}
}

// fleetParRemote reports whether arrival j of a shard is forwarded to
// the next node: every 4th arrival, i.e. a deterministic 25% remote
// fraction.
func fleetParRemote(j int) bool { return j%4 == 3 }

// FleetParRun executes the sharded fleet on `workers` host threads
// and returns the merged result. topo: 4 nodes x 2 cores; lookahead:
// the minimum cross-node submit latency from the cost model — no
// cross-shard interaction can be faster, so the conservative window
// is safe (see DESIGN.md).
func FleetParRun(workers int) *FleetParResult {
	const (
		nTasks  = 200
		maxSize = units.Bytes(64 << 10)
	)
	tp := topo.NUMA(4, 2, 64<<20)
	nn := tp.Nodes()
	lookahead := cycles.RemoteSubmitLatency(tp.MinRemoteDist())
	set := sim.NewShardSet(nn, lookahead, workers)

	cells := make([]*fleetParCell, nn)
	for i := 0; i < nn; i++ {
		env := set.Shard(i)
		pm := mem.NewPhysMem(64 << 20)
		svc := core.NewService(env, pm, core.DefaultConfig())
		as := mem.NewAddrSpace(pm)
		client := svc.NewClient(fmt.Sprintf("fleetpar-%d", i), as, as, nil)
		src := as.MMap(maxSize, mem.PermRead|mem.PermWrite, "s")
		dst := as.MMap(maxSize, mem.PermRead|mem.PermWrite, "d")
		if _, err := as.Populate(src, maxSize, true); err != nil {
			panic(err)
		}
		if _, err := as.Populate(dst, maxSize, true); err != nil {
			panic(err)
		}
		cells[i] = &fleetParCell{
			env: env, svc: svc, client: client, as: as, src: src, dst: dst,
			hist: &obs.Histogram{},
			arrivals: Schedule(ArrivalConfig{
				Seed:    0xf1ee7 + uint64(i),
				MeanGap: 20_000,
				Clients: 1,
				Sizes:   []units.Bytes{16 << 10, 64 << 10},
			}, nTasks),
		}
	}

	// Expected completions per shard: local arrivals stay home, every
	// remote arrival of shard i lands on shard (i+1) mod nn.
	for i, c := range cells {
		for j := range c.arrivals {
			if fleetParRemote(j) {
				cells[(i+1)%nn].expected++
			} else {
				c.expected++
			}
		}
	}

	var res FleetParResult
	// submit enqueues one prepared task on the serving cell, stamping
	// the submission time its latency is measured from. It runs either
	// in the local driver's context or as a delivered cross-shard
	// event; both are inside the serving shard's event loop.
	submit := func(c *fleetParCell, t *core.Task, submitAt *sim.Time) {
		*submitAt = c.env.Now()
		if !c.client.SubmitCopy(t, false) {
			c.shed++
			c.expected--
			c.maybeStop()
		}
	}
	// Prepare every task up front: the serving cell's buffers, a
	// descriptor, and a completion handler feeding that cell's
	// histogram. tasksFor[i][j] is shard i's j-th arrival, already
	// homed on its serving cell.
	tasksFor := make([][]*core.Task, nn)
	submitAts := make([][]sim.Time, nn)
	for i, c := range cells {
		tasksFor[i] = make([]*core.Task, len(c.arrivals))
		submitAts[i] = make([]sim.Time, len(c.arrivals))
		for j := range c.arrivals {
			serve := c
			if fleetParRemote(j) {
				serve = cells[(i+1)%nn]
			}
			size := c.arrivals[j].Size
			at := &submitAts[i][j]
			sc := serve
			t := &core.Task{
				Src: serve.src, Dst: serve.dst, SrcAS: serve.as, DstAS: serve.as, Len: size,
				Desc: core.NewDescriptor(serve.dst, size, core.DefaultSegSize),
			}
			t.Handler = &core.Handler{Kernel: true, Fn: func() {
				sc.hist.Observe(int64(sc.env.Now() - *at))
				sc.completed++
				sc.maybeStop()
			}}
			tasksFor[i][j] = t
		}
	}

	for i := range cells {
		i := i
		c := cells[i]
		c.env.Go("fleetpar-driver", func(p *sim.Proc) {
			for j := range c.arrivals {
				a := c.arrivals[j]
				if a.At > p.Now() {
					p.Wait(a.At - p.Now())
				}
				t := tasksFor[i][j]
				at := &submitAts[i][j]
				if fleetParRemote(j) {
					dst := (i + 1) % len(cells)
					sc := cells[dst]
					set.Send(i, dst, lookahead, func() { submit(sc, t, at) })
					c.remote++
				} else {
					submit(c, t, at)
				}
				c.submitted++
			}
		})
		c.env.Go("copierd", func(p *sim.Proc) { c.svc.ThreadMain(benchCtx{p}, 0) })
	}

	if err := set.Run(100_000_000_000); err != nil {
		if _, ok := err.(*sim.DeadlockError); !ok {
			panic(err)
		}
	}
	merged := &obs.Histogram{}
	for _, c := range cells {
		if c.completed < c.expected {
			panic(fmt.Sprintf("fleetpar: shard stalled at %d/%d completions", c.completed, c.expected))
		}
		res.Completed += c.completed
		res.Shed += c.shed
		res.Submitted += c.submitted
		res.Remote += c.remote
		merged.Merge(c.hist)
	}
	res.Shards = nn
	res.Workers = workers
	res.Lookahead = lookahead
	res.Windows = set.Windows()
	res.Cross = set.CrossDelivered()
	res.P50 = merged.Quantile(0.50)
	res.P99 = merged.Quantile(0.99)
	res.Mean = merged.Mean()
	return &res
}

// runFleetPar renders the experiment table. The row is identical for
// every worker count — that is the point — so the table reports the
// conservative engine's bookkeeping alongside the SLO view.
func runFleetPar(s Scale) []*Table {
	r := FleetParRun(parWorkers)
	t := &Table{ID: "fleetpar", Title: "Sharded fleet on the conservative parallel event loop",
		Columns: []string{"shards", "lookahead us", "windows", "cross", "submitted", "remote", "shed", "p50 us", "p99 us", "mean us"}}
	t.AddRow(
		fmt.Sprintf("%d", r.Shards),
		fmt.Sprintf("%.1f", cycles.ToMicroseconds(r.Lookahead)),
		fmt.Sprintf("%d", r.Windows),
		fmt.Sprintf("%d", r.Cross),
		fmt.Sprintf("%d", r.Submitted),
		fmt.Sprintf("%d", r.Remote),
		fmt.Sprintf("%d", r.Shed),
		fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.P50))),
		fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.P99))),
		fmt.Sprintf("%.1f", cycles.ToMicroseconds(sim.Time(r.Mean))))
	t.Note("one shard per NUMA node; 25%% of each shard's arrivals forwarded to the next node with delay = remote submit latency (= the lookahead)")
	t.Note("output is byte-identical for every worker count (enforced by the TestGoldens 4-worker rerun); wall-clock speedup is recorded in the microbench report")
	return []*Table{t}
}
