package hw

import (
	"testing"

	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// numaRig builds a 4-node machine with one buffer frame on each node.
func numaRig(t *testing.T) (*sim.Env, *mem.PhysMem, *topo.Topology, []mem.Frame) {
	t.Helper()
	env := sim.NewEnv()
	tp := topo.NUMA(4, 2, 1<<20)
	pm := mem.NewPhysMem(tp.TotalMem())
	if err := pm.ConfigureNodes(4); err != nil {
		t.Fatal(err)
	}
	frames := make([]mem.Frame, 4)
	for n := 0; n < 4; n++ {
		f, err := pm.AllocFrameOn(n)
		if err != nil {
			t.Fatal(err)
		}
		if pm.NodeOf(f) != n {
			t.Fatalf("frame for node %d landed on %d", n, pm.NodeOf(f))
		}
		frames[n] = f
	}
	return env, pm, tp, frames
}

func TestDMAXferCostDistanceScaling(t *testing.T) {
	_, pm, tp, frames := numaRig(t)
	env := sim.NewEnv()
	n := units.Bytes(4 << 10)
	d := NewDMAChannel(env, pm, 0, tp)

	rng := func(node int) FrameRange { return FrameRange{Frame: frames[node], Len: n} }
	local := d.XferCost(rng(0), rng(0))
	remoteSrc := d.XferCost(rng(0), rng(2))
	remoteBoth := d.XferCost(rng(1), rng(2))

	if local != cycles.CopyCost(cycles.UnitDMA, n) {
		t.Errorf("local XferCost = %d, want flat %d", local, cycles.CopyCost(cycles.UnitDMA, n))
	}
	want := cycles.NUMACopyCost(cycles.UnitDMA, n, cycles.DistRemote) + cycles.NUMAXferLatency(cycles.DistRemote)
	if remoteSrc != want {
		t.Errorf("remote-src XferCost = %d, want %d", remoteSrc, want)
	}
	if remoteBoth != want {
		t.Errorf("remote-both XferCost = %d, want %d (worst leg dominates)", remoteBoth, want)
	}
	if remoteSrc <= local {
		t.Errorf("remote cost %d not above local %d", remoteSrc, local)
	}
}

// An engine on a single-node topology must price transfers exactly
// like one on a nil topology, at the flat model's rate — the flat
// machine is the special case, not a fork.
func TestDMAFlatPlacementMatchesUnplaced(t *testing.T) {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(1 << 20)
	f, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	g, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []units.Bytes{1, 4 << 10, 64 << 10} {
		dst := FrameRange{Frame: f, Len: n}
		src := FrameRange{Frame: g, Len: n}
		plain := NewDMAChannel(env, pm, 0, nil)
		placed := NewDMAChannel(env, pm, 0, topo.SingleNode(4, 1<<20))
		if placed.XferCost(dst, src) != plain.XferCost(dst, src) {
			t.Errorf("%d bytes: placed %d != plain %d", n, placed.XferCost(dst, src), plain.XferCost(dst, src))
		}
		if flat := cycles.CopyCost(cycles.UnitDMA, n); plain.XferCost(dst, src) != flat {
			t.Errorf("%d bytes: nil topology %d != flat %d", n, plain.XferCost(dst, src), flat)
		}
		if placed.Track() != "hw:DMA" || plain.Track() != "hw:DMA" {
			t.Errorf("flat tracks diverge: %q vs %q", placed.Track(), plain.Track())
		}
	}
}

func TestDMAPerNodeTracksAndBusyCycles(t *testing.T) {
	env, pm, tp, frames := numaRig(t)
	n := units.Bytes(8 << 10)
	d0 := NewDMAChannel(env, pm, 0, tp)
	d3 := NewDMAChannel(env, pm, 3, tp)
	if d0.Track() == d3.Track() {
		t.Fatalf("per-node engines share track %q", d0.Track())
	}
	if d0.Track() != "hw:DMA0" || d3.Track() != "hw:DMA3" {
		t.Fatalf("unexpected tracks %q / %q", d0.Track(), d3.Track())
	}

	// Remote transfer holds the engine longer than a local one, and
	// BusyCycles records the occupancy.
	dst := FrameRange{Frame: frames[0], Len: n}
	srcLocal := FrameRange{Frame: frames[0], Off: n, Len: n}
	srcRemote := FrameRange{Frame: frames[2], Len: n}
	d0.Enqueue(dst, srcLocal)
	busyAfterLocal := d0.BusyCycles
	if busyAfterLocal != int64(cycles.CopyCost(cycles.UnitDMA, n)) {
		t.Errorf("local BusyCycles = %d, want %d", busyAfterLocal, cycles.CopyCost(cycles.UnitDMA, n))
	}
	d0.Enqueue(dst, srcRemote)
	if remote := d0.BusyCycles - busyAfterLocal; remote <= busyAfterLocal {
		t.Errorf("remote occupancy %d not above local %d", remote, busyAfterLocal)
	}
	if d3.BusyCycles != 0 {
		t.Errorf("idle node-3 engine BusyCycles = %d", d3.BusyCycles)
	}
}
