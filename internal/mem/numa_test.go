package mem

import (
	"testing"

	"copier/internal/units"
)

func TestConfigureNodesPartition(t *testing.T) {
	pm := NewPhysMem(4 << 20) // 1024 frames
	if pm.NumNodes() != 1 {
		t.Fatalf("fresh PhysMem NumNodes = %d, want 1", pm.NumNodes())
	}
	if err := pm.ConfigureNodes(4); err != nil {
		t.Fatalf("ConfigureNodes: %v", err)
	}
	if pm.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", pm.NumNodes())
	}
	// Every frame belongs to exactly one node; ranges are contiguous
	// and ordered.
	prev := 0
	counts := make([]int, 4)
	for f := 0; f < pm.NumFrames(); f++ {
		n := pm.NodeOf(Frame(f))
		if n < prev {
			t.Fatalf("NodeOf not monotone at frame %d: %d after %d", f, n, prev)
		}
		prev = n
		counts[n]++
	}
	for n, c := range counts {
		if c != 256 {
			t.Errorf("node %d owns %d frames, want 256", n, c)
		}
		if pm.FreeFramesOn(n) != c {
			t.Errorf("node %d FreeFramesOn = %d, want %d", n, pm.FreeFramesOn(n), c)
		}
	}
}

func TestConfigureNodesRejectsLiveMemory(t *testing.T) {
	pm := NewPhysMem(1 << 20)
	if _, err := pm.AllocFrame(); err != nil {
		t.Fatal(err)
	}
	if err := pm.ConfigureNodes(2); err == nil {
		t.Fatal("ConfigureNodes accepted live memory")
	}
	if err := NewPhysMem(1 << 20).ConfigureNodes(0); err == nil {
		t.Fatal("ConfigureNodes(0) accepted")
	}
}

func TestAllocFramesOnPrefersLocalNode(t *testing.T) {
	pm := NewPhysMem(4 << 20)
	if err := pm.ConfigureNodes(4); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		fs, err := pm.AllocFramesOn(node, 8)
		if err != nil {
			t.Fatalf("AllocFramesOn(%d): %v", node, err)
		}
		for _, f := range fs {
			if pm.NodeOf(f) != node {
				t.Errorf("frame %d landed on node %d, want %d", f, pm.NodeOf(f), node)
			}
		}
	}
}

func TestAllocFramesOnSpillsDeterministically(t *testing.T) {
	pm := NewPhysMem(64 << 12) // 64 frames, 16 per node
	if err := pm.ConfigureNodes(4); err != nil {
		t.Fatal(err)
	}
	// Exhaust node 1.
	if _, err := pm.AllocFramesOn(1, 16); err != nil {
		t.Fatal(err)
	}
	if pm.FreeFramesOn(1) != 0 {
		t.Fatalf("node 1 not exhausted: %d free", pm.FreeFramesOn(1))
	}
	// Next preferred-1 allocation must spill to node 2 (the next node
	// in (preferred+k) mod n order), not 0 or 3.
	fs, err := pm.AllocFramesOn(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if pm.NodeOf(f) != 2 {
			t.Errorf("spill landed on node %d, want 2", pm.NodeOf(f))
		}
	}
	// A request larger than any node's free pool spans nodes but still
	// succeeds.
	fs, err = pm.AllocFramesOn(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 20 {
		t.Fatalf("got %d frames, want 20", len(fs))
	}
	// Total exhaustion fails cleanly.
	if _, err := pm.AllocFramesOn(0, units.Pages(pm.FreeFrames()+1)); err == nil {
		t.Fatal("over-allocation succeeded")
	}
}

func TestAllocFramesOnContiguousWithinNode(t *testing.T) {
	pm := NewPhysMem(64 << 12)
	if err := pm.ConfigureNodes(4); err != nil {
		t.Fatal(err)
	}
	fs, err := pm.AllocFramesOn(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fs); i++ {
		if !Contiguous(fs[i-1], fs[i]) {
			t.Errorf("frames %d,%d not contiguous", fs[i-1], fs[i])
		}
		if pm.NodeOf(fs[i]) != 3 {
			t.Errorf("frame %d off node 3", fs[i])
		}
	}
}

func TestAddrSpaceHomeNodePlacement(t *testing.T) {
	pm := NewPhysMem(4 << 20)
	if err := pm.ConfigureNodes(4); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		as := NewAddrSpace(pm)
		if as.HomeNode() != -1 {
			t.Fatalf("fresh AddrSpace home = %d, want -1", as.HomeNode())
		}
		as.SetHomeNode(node)
		va := as.MMap(64<<10, PermRead|PermWrite, "buf")
		if _, err := as.Populate(va, 64<<10, true); err != nil {
			t.Fatal(err)
		}
		for off := units.Bytes(0); off < 64<<10; off += PageSize {
			f, _, err := as.Translate(va + VA(off))
			if err != nil {
				t.Fatal(err)
			}
			if pm.NodeOf(f) != node {
				t.Errorf("home %d: page at +%d on node %d", node, off, pm.NodeOf(f))
			}
		}
	}
}

func TestForkInheritsHomeNode(t *testing.T) {
	pm := NewPhysMem(4 << 20)
	if err := pm.ConfigureNodes(2); err != nil {
		t.Fatal(err)
	}
	as := NewAddrSpace(pm)
	as.SetHomeNode(1)
	va := as.MMap(PageSize, PermRead|PermWrite, "b")
	if _, err := as.Populate(va, PageSize, true); err != nil {
		t.Fatal(err)
	}
	child := as.Fork()
	if child.HomeNode() != 1 {
		t.Fatalf("child home = %d, want 1", child.HomeNode())
	}
	// CoW break in the child allocates on the child's home node.
	if err := child.WriteAt(va, []byte{1}); err != nil {
		t.Fatal(err)
	}
	f, _, err := child.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NodeOf(f) != 1 {
		t.Errorf("CoW copy on node %d, want 1", pm.NodeOf(f))
	}
}

// TestPopulateLeavesMarkOnFirstFreeFrame populates homed address
// spaces on a fresh 4-node PhysMem; the one homed on node 1 outgrows
// its node and spills onto node 2. Each node's low-water mark must
// then sit on the node's first free frame (its end when it is full),
// so the next single-frame fault examines one frame. Remapping a page
// of node 0's run frees a frame below the mark, and the next fault
// that takes it must move the mark past the allocated frames above.
func TestPopulateLeavesMarkOnFirstFreeFrame(t *testing.T) {
	pm := NewPhysMem(4 << 20) // 1024 frames, 256 per node
	if err := pm.ConfigureNodes(4); err != nil {
		t.Fatal(err)
	}
	var as0 *AddrSpace // homed on node 0
	var buf0 VA
	for node, pages := range []units.Pages{40, 300, 0, 7} {
		as := NewAddrSpace(pm)
		as.SetHomeNode(node)
		va := as.MMap(pages.Bytes(), PermRead|PermWrite, "buf")
		if _, err := as.Populate(va, pages.Bytes(), true); err != nil {
			t.Fatal(err)
		}
		if node == 0 {
			as0, buf0 = as, va
		}
	}
	checkFirstFree := func(wants []int) {
		t.Helper()
		for node, want := range wants {
			lo, hi := pm.nodeBounds(node)
			first := hi
			for f := hi - 1; f >= lo; f-- {
				if pm.free[f] {
					first = f
				}
			}
			if first != want {
				t.Fatalf("node %d: first free frame %d, want %d", node, first, want)
			}
			if pm.low[node] != first {
				t.Errorf("node %d: mark %d, want its first free frame %d", node, pm.low[node], first)
			}
		}
	}
	checkFirstFree([]int{40, 512, 512 + 44, 768 + 7})
	f, err := pm.AllocFrameOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := as0.ReplacePage(buf0+10*PageSize, f); err != nil {
		t.Fatal(err)
	}
	pm.DecRef(f)
	checkFirstFree([]int{10})
	va := as0.MMap(PageSize, PermRead|PermWrite, "one")
	if _, err := as0.Populate(va, PageSize, true); err != nil {
		t.Fatal(err)
	}
	checkFirstFree([]int{41})
}
