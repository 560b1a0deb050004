package topo

import (
	"testing"

	"copier/internal/cycles"
)

func TestSingleNode(t *testing.T) {
	tp := SingleNode(4, 256<<20)
	if tp.Nodes() != 1 {
		t.Fatalf("SingleNode not flat: nodes=%d", tp.Nodes())
	}
	if tp.TotalCores() != 4 || tp.TotalMem() != 256<<20 {
		t.Fatalf("totals wrong: cores=%d mem=%d", tp.TotalCores(), tp.TotalMem())
	}
	if d := tp.Dist(0, 0); d != cycles.DistLocal {
		t.Fatalf("self distance = %d, want %d", d, cycles.DistLocal)
	}
}

// A nil topology is the one-node machine: the layers above ask it for
// a node count and a pair distance without testing for nil.
func TestNilIsOneLocalNode(t *testing.T) {
	var tp *Topology
	if n := tp.Nodes(); n != 1 {
		t.Errorf("nil Nodes() = %d, want 1", n)
	}
	if d := tp.PairDist(0, 0, 0); d != cycles.DistLocal {
		t.Errorf("nil PairDist = %d, want %d", d, cycles.DistLocal)
	}
	if d := SingleNode(4, 256<<20).PairDist(0, 0, 0); d != cycles.DistLocal {
		t.Errorf("SingleNode PairDist = %d, want %d", d, cycles.DistLocal)
	}
}

// Property: every constructor-produced matrix is symmetric with the
// local distance on the diagonal and remote >= local off it.
func TestDistanceMatrixInvariants(t *testing.T) {
	topos := []*Topology{
		SingleNode(4, 64<<20),
		NUMA(2, 2, 64<<20),
		NUMA(4, 4, 64<<20),
		NUMA(8, 1, 16<<20),
	}
	// An explicit asymmetric-bandwidth machine: nodes 0-1 close,
	// 2-3 close, cross pairs far.
	mesh, err := FromDistances([][]int{
		{10, 12, 21, 21},
		{12, 10, 21, 21},
		{21, 21, 10, 12},
		{21, 21, 12, 10},
	}, 2, 64<<20)
	if err != nil {
		t.Fatalf("FromDistances: %v", err)
	}
	topos = append(topos, mesh)

	for _, tp := range topos {
		n := tp.Nodes()
		for i := 0; i < n; i++ {
			if tp.Dist(i, i) != cycles.DistLocal {
				t.Errorf("%d nodes: dist(%d,%d)=%d, want local %d", n, i, i, tp.Dist(i, i), cycles.DistLocal)
			}
			for j := 0; j < n; j++ {
				if tp.Dist(i, j) != tp.Dist(j, i) {
					t.Errorf("%d nodes: asymmetric dist(%d,%d)=%d dist(%d,%d)=%d",
						n, i, j, tp.Dist(i, j), j, i, tp.Dist(j, i))
				}
				if i != j && tp.Dist(i, j) < cycles.DistLocal {
					t.Errorf("%d nodes: remote dist(%d,%d)=%d below local", n, i, j, tp.Dist(i, j))
				}
			}
		}
	}
}

func TestFromDistancesRejectsBadMatrices(t *testing.T) {
	cases := [][][]int{
		{},                           // empty
		{{10, 21}},                   // ragged
		{{10, 21}, {15, 10}},         // asymmetric
		{{12}},                       // diagonal not local
		{{10, 21}, {21, 12}},         // diagonal not local
		{{10, 5}, {5, 10}},           // remote cheaper than local
		{{10, 21, 21}, {21, 10, 21}}, // not square
	}
	for i, dist := range cases {
		if _, err := FromDistances(dist, 2, 1<<20); err == nil {
			t.Errorf("case %d: bad matrix accepted", i)
		}
	}
}

func TestNodeOfCore(t *testing.T) {
	tp := NUMA(4, 3, 64<<20)
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	for c, w := range want {
		if g := tp.NodeOfCore(c); g != w {
			t.Errorf("NodeOfCore(%d) = %d, want %d", c, g, w)
		}
	}
}

func TestPairDistTakesWorstLeg(t *testing.T) {
	tp := NUMA(4, 2, 64<<20)
	// Engine local to both endpoints: local distance.
	if d := tp.PairDist(1, 1, 1); d != cycles.DistLocal {
		t.Errorf("all-local PairDist = %d, want %d", d, cycles.DistLocal)
	}
	// One remote leg dominates.
	if d := tp.PairDist(0, 0, 2); d != cycles.DistRemote {
		t.Errorf("one-remote PairDist = %d, want %d", d, cycles.DistRemote)
	}
	if d := tp.PairDist(3, 1, 3); d != cycles.DistRemote {
		t.Errorf("remote-src PairDist = %d, want %d", d, cycles.DistRemote)
	}
	// Engine remote to both: still the one-hop distance.
	if d := tp.PairDist(2, 0, 1); d != cycles.DistRemote {
		t.Errorf("both-remote PairDist = %d, want %d", d, cycles.DistRemote)
	}
}
