package bench

import (
	"testing"

	"copier/internal/core"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// TestFleetSmoke runs one small open-loop configuration per topology
// shape and sanity-checks the result: every submitted task completes,
// the quantiles are ordered, and utilization is a fraction. Fast
// enough for scripts/check.sh.
func TestFleetSmoke(t *testing.T) {
	arrival := ArrivalConfig{
		Seed:    7,
		MeanGap: 25_000,
		Clients: 8,
		Sizes:   []units.Bytes{4 << 10, 64 << 10},
	}
	for _, fc := range []fleetConfig{
		{name: "smoke-1node", tp: topo.SingleNode(4, 128<<20), arrival: arrival, arrivals: 60},
		{name: "smoke-4node", tp: topo.NUMA(4, 2, 32<<20), arrival: arrival, arrivals: 60},
	} {
		r := fleetRun(sim.NewEnv(), fc)
		if r.Submitted+r.Shed != 60 {
			t.Fatalf("%s: submitted %d + shed %d != 60", fc.name, r.Submitted, r.Shed)
		}
		if r.Submitted == 0 {
			t.Fatalf("%s: everything shed", fc.name)
		}
		if r.P50 <= 0 || r.P50 > r.P99 || r.P99 > r.P999 {
			t.Fatalf("%s: quantiles out of order: p50=%d p99=%d p999=%d",
				fc.name, r.P50, r.P99, r.P999)
		}
		if len(r.NodeUtil) != fc.tp.Nodes() {
			t.Fatalf("%s: %d utilization entries for %d nodes", fc.name, len(r.NodeUtil), fc.tp.Nodes())
		}
		var total int64
		for i, u := range r.NodeUtil {
			if u < 0 || u > 1 {
				t.Fatalf("%s: node %d utilization %f out of [0,1]", fc.name, i, u)
			}
		}
		for _, h := range r.PerNode {
			total += h.Count()
		}
		if total != int64(r.Submitted) {
			t.Fatalf("%s: per-node histograms hold %d observations, want %d", fc.name, total, r.Submitted)
		}
	}
}

// TestFleetSubmitHotLoopAllocFree pins the fleet driver's steady
// state: with the schedule and tasks pregenerated, one submit —
// shard-ring push plus latency observation — must not allocate.
func TestFleetSubmitHotLoopAllocFree(t *testing.T) {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(64 << 20)
	svc := core.NewService(env, pm, core.DefaultConfig())
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("pin", as, as, nil)
	c.EnableShards(2)

	const n = 4 << 10
	src := as.MMap(n, mem.PermRead|mem.PermWrite, "s")
	dst := as.MMap(n, mem.PermRead|mem.PermWrite, "d")
	if _, err := as.Populate(src, n, true); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Populate(dst, n, true); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	tasks := make([]*core.Task, runs+10)
	for i := range tasks {
		tasks[i] = &core.Task{Src: src, Dst: dst, SrcAS: as, DstAS: as, Len: n,
			Desc: core.NewDescriptor(dst, n, core.DefaultSegSize)}
	}
	hist := &obs.Histogram{}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		if !c.SubmitCopyOn(i%2, tasks[i]) {
			// Keep the loop allocation-free even when the ring fills:
			// drain it the way the service would.
			ctx := drainCtx{}
			c.Shards.Ring(0).PopN(drainBuf[:])
			c.Shards.Ring(1).PopN(drainBuf[:])
			_ = ctx
		}
		hist.Observe(int64(i))
		i++
	}); got != 0 {
		t.Fatalf("fleet submit hot loop allocates %v per iteration", got)
	}
}

var drainBuf [64]*core.Task

type drainCtx struct{}

func (drainCtx) Exec(sim.Time)                           {}
func (drainCtx) Block(*sim.Signal)                       {}
func (drainCtx) SpinUntil(*sim.Signal)                   {}
func (drainCtx) BlockTimeout(*sim.Signal, sim.Time) bool { return false }
func (drainCtx) Now() sim.Time                           { return 0 }
func (drainCtx) Env() *sim.Env                           { return nil }
