// fig9numa: the fig9 throughput measurement re-run on a 4-node NUMA
// machine with an asymmetric distance matrix. Same closed-loop driver
// as fig9; the variable is where the buffers live relative to the
// client's home node, so the table shows the placement penalty the
// flat fig9 cannot: local traffic at full throughput, near-remote and
// far-remote traffic degraded by the modeled distance.

package bench

import (
	"fmt"

	"copier/internal/core"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

func init() {
	register("fig9numa", "Fig. 9 on 4-node NUMA", runFig9NUMA)
}

// fig9NUMATopo is the asymmetric mesh: node 1 is one hop from node 0
// (SLIT 12), nodes 2 and 3 are far (SLIT 21).
func fig9NUMATopo() *topo.Topology {
	tp, err := topo.FromDistances([][]int{
		{10, 12, 21, 21},
		{12, 10, 21, 21},
		{21, 21, 10, 12},
		{21, 21, 12, 10},
	}, 2, 64<<20)
	if err != nil {
		panic(err)
	}
	return tp
}

// numaThroughput is copierThroughput on a NUMA machine: back-to-back
// tasks of one size through a client homed on node 0, with the source
// buffer placed on srcNode and the destination on node 0.
func numaThroughput(size units.Bytes, tasks, srcNode int, tp *topo.Topology) float64 {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(tp.TotalMem())
	if err := pm.ConfigureNodes(tp.Nodes()); err != nil {
		panic(err)
	}
	cfg := core.DefaultConfig()
	cfg.Topo = tp
	svc := core.NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	client := svc.NewClientOn("bench", as, as, nil, 0)

	place := func(node int, name string) mem.VA {
		as.SetHomeNode(node)
		va := as.MMap(size, mem.PermRead|mem.PermWrite, name)
		if _, err := as.Populate(va, size, true); err != nil {
			panic(err)
		}
		return va
	}
	src := place(srcNode, "s")
	dst := place(0, "d")
	return closedLoopThroughput(env, svc, client, size, tasks, func(int) (mem.VA, mem.VA) { return src, dst })
}

func runFig9NUMA(s Scale) []*Table {
	tasks := 40
	if s == Full {
		tasks = 200
	}
	sizes := []units.Bytes{16 << 10, 64 << 10, 256 << 10}
	if s == Full {
		sizes = []units.Bytes{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	tp := fig9NUMATopo()
	t := &Table{ID: "fig9numa", Title: "Copy throughput by source placement, 4-node NUMA (bytes/cycle)",
		Columns: []string{"size", "local n0->n0", "near n1->n0", "far n2->n0", "near vs local", "far vs local"}}
	for _, n := range sizes {
		local := numaThroughput(n, tasks, 0, tp)
		near := numaThroughput(n, tasks, 1, tp)
		far := numaThroughput(n, tasks, 2, tp)
		t.AddRow(kb(int(n)),
			fmt.Sprintf("%.2f", local),
			fmt.Sprintf("%.2f", near),
			fmt.Sprintf("%.2f", far),
			pct(near, local), pct(far, local))
	}
	t.Note("SLIT distances 10/12/21; cost model scales copy cycles by dist/10 plus a fixed hop latency")
	t.Note("client homed on node 0; destination stays local, only the source moves")
	return []*Table{t}
}
