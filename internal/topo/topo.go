// Package topo describes the simulated machine's hardware topology:
// how many NUMA nodes it has, how cores and memory are divided among
// them, and the SLIT-style distance matrix between nodes. "One socket"
// versus "4-node NUMA" is configuration, not code: every layer that
// cares (frame allocator, DMA engines, copier service, kernel
// placement) takes a *Topology, and the flat machine the original
// model described is the single-node topology. A nil *Topology is
// that machine too: Nodes answers 1 and PairDist DistLocal, so no
// caller needs a separate path for nil or for one node.
//
// Distances follow the ACPI SLIT convention used by the cost model in
// internal/cycles: a node is at distance cycles.DistLocal (10) from
// itself and typically cycles.DistRemote (21) from a one-hop neighbor,
// which the cost model turns into a ~2.1x cycle (~0.48x bandwidth)
// remote penalty plus a fixed per-transfer hop latency.
package topo

import (
	"fmt"

	"copier/internal/cycles"
)

// Topology is an immutable machine descriptor. The zero value is not
// valid; use SingleNode, NUMA, or FromDistances.
type Topology struct {
	coresPerNode int
	memPerNode   int64
	dist         [][]int
}

// SingleNode describes the flat machine: one node owning all cores
// and memory. Its distances are all DistLocal, where the cost model
// charges exactly the flat rate, so it prices every copy as a nil
// *Topology does.
func SingleNode(cores int, memBytes int64) *Topology {
	t, err := FromDistances([][]int{{cycles.DistLocal}}, cores, memBytes)
	if err != nil {
		panic(err)
	}
	return t
}

// NUMA describes a symmetric multi-socket machine: nodes sockets, each
// with coresPerNode cores and memPerNode bytes of local memory, every
// remote pair at the default one-hop distance cycles.DistRemote.
func NUMA(nodes, coresPerNode int, memPerNode int64) *Topology {
	if nodes <= 0 {
		panic("topo: NUMA needs at least one node")
	}
	dist := make([][]int, nodes)
	for i := range dist {
		dist[i] = make([]int, nodes)
		for j := range dist[i] {
			if i == j {
				dist[i][j] = cycles.DistLocal
			} else {
				dist[i][j] = cycles.DistRemote
			}
		}
	}
	t, err := FromDistances(dist, coresPerNode, memPerNode)
	if err != nil {
		panic(err)
	}
	return t
}

// FromDistances builds a topology from an explicit SLIT distance
// matrix (row i, column j = distance from node i to node j). The
// matrix is copied; it must be square, symmetric, with DistLocal on
// the diagonal and off-diagonal entries >= DistLocal.
func FromDistances(dist [][]int, coresPerNode int, memPerNode int64) (*Topology, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("topo: empty distance matrix")
	}
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("topo: coresPerNode must be positive, got %d", coresPerNode)
	}
	if memPerNode <= 0 {
		return nil, fmt.Errorf("topo: memPerNode must be positive, got %d", memPerNode)
	}
	cp := make([][]int, n)
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("topo: distance row %d has %d entries, want %d", i, len(dist[i]), n)
		}
		cp[i] = make([]int, n)
		copy(cp[i], dist[i])
	}
	t := &Topology{coresPerNode: coresPerNode, memPerNode: memPerNode, dist: cp}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate checks the SLIT invariants: diagonal exactly DistLocal,
// symmetry, off-diagonal >= DistLocal (remote is never cheaper than
// local).
func (t *Topology) Validate() error {
	n := len(t.dist)
	for i := 0; i < n; i++ {
		if t.dist[i][i] != cycles.DistLocal {
			return fmt.Errorf("topo: dist[%d][%d] = %d, diagonal must be %d", i, i, t.dist[i][i], cycles.DistLocal)
		}
		for j := 0; j < n; j++ {
			if t.dist[i][j] != t.dist[j][i] {
				return fmt.Errorf("topo: asymmetric distances dist[%d][%d]=%d dist[%d][%d]=%d",
					i, j, t.dist[i][j], j, i, t.dist[j][i])
			}
			if i != j && t.dist[i][j] < cycles.DistLocal {
				return fmt.Errorf("topo: dist[%d][%d] = %d below local distance %d", i, j, t.dist[i][j], cycles.DistLocal)
			}
		}
	}
	return nil
}

// Nodes returns the number of NUMA nodes (1 for a nil topology).
func (t *Topology) Nodes() int {
	if t == nil {
		return 1
	}
	return len(t.dist)
}

// CoresPerNode returns the number of cores local to each node.
func (t *Topology) CoresPerNode() int { return t.coresPerNode }

// TotalCores returns the machine-wide core count.
func (t *Topology) TotalCores() int { return t.coresPerNode * len(t.dist) }

// TotalMem returns the machine-wide physical memory in bytes.
func (t *Topology) TotalMem() int64 { return t.memPerNode * int64(len(t.dist)) }

// Dist returns the SLIT distance between nodes a and b.
func (t *Topology) Dist(a, b int) int { return t.dist[a][b] }

// NodeOfCore returns the node owning core c (cores are numbered
// node-major: node 0 owns cores [0, coresPerNode), node 1 the next
// block, and so on).
func (t *Topology) NodeOfCore(c int) int {
	n := c / t.coresPerNode
	if n < 0 || n >= len(t.dist) {
		panic(fmt.Sprintf("topo: core %d outside machine with %d cores", c, t.TotalCores()))
	}
	return n
}

// PairDist returns the distance an engine on engineNode experiences
// for a transfer reading srcNode and writing dstNode: the worst of
// its two legs, since the slower link bounds the transfer. A nil
// topology is one node, so every pair is DistLocal.
func (t *Topology) PairDist(engineNode, srcNode, dstNode int) int {
	if t == nil {
		return cycles.DistLocal
	}
	d := t.dist[engineNode][srcNode]
	if dd := t.dist[engineNode][dstNode]; dd > d {
		d = dd
	}
	return d
}
