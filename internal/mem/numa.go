// Per-node frame allocation: on a NUMA machine each node owns a
// contiguous range of physical frames, and allocations carry a
// preferred node. A PhysMem starts as one node owning every frame, and
// every request, with a preference or without, goes through the same
// allocInRange, so the flat machine is the one-node case of this
// allocator, not a separate code path.

package mem

import (
	"fmt"

	"copier/internal/units"
)

// ConfigureNodes splits the frame space into n equal contiguous node
// ranges (the remainder frames go to the last node). It must be
// called before any allocation; re-partitioning live memory would
// silently change what NodeOf reports for outstanding frames.
func (pm *PhysMem) ConfigureNodes(n int) error {
	if n <= 0 {
		return fmt.Errorf("mem: ConfigureNodes(%d): need at least one node", n)
	}
	if n > pm.nframes {
		return fmt.Errorf("mem: ConfigureNodes(%d): only %d frames", n, pm.nframes)
	}
	if pm.nfree != pm.nframes {
		return fmt.Errorf("mem: ConfigureNodes(%d): %d frames already allocated", n, pm.nframes-pm.nfree)
	}
	pm.nnodes, pm.perNode = n, pm.nframes/n
	pm.low = make([]int, n)
	for node := range pm.low {
		pm.low[node], _ = pm.nodeBounds(node)
	}
	return nil
}

// NumNodes returns the number of NUMA nodes (1 until ConfigureNodes).
func (pm *PhysMem) NumNodes() int { return pm.nnodes }

// nodeBounds returns node's frame range [lo, hi).
func (pm *PhysMem) nodeBounds(node int) (lo, hi int) {
	lo = node * pm.perNode
	hi = lo + pm.perNode
	if node == pm.nnodes-1 {
		hi = pm.nframes
	}
	return lo, hi
}

// NodeOf returns the NUMA node owning frame f.
func (pm *PhysMem) NodeOf(f Frame) int {
	pm.checkFrame(f)
	// The remainder tail belongs to the last node.
	return min(int(f)/pm.perNode, pm.nnodes-1)
}

// FreeFramesOn returns the number of free frames on one node.
func (pm *PhysMem) FreeFramesOn(node int) int {
	lo, hi := pm.nodeBounds(node)
	nfree := 0
	for f := lo; f < hi; f++ {
		if pm.free[f] {
			nfree++
		}
	}
	return nfree
}

// AllocFrameOn allocates one frame, preferring node preferred.
func (pm *PhysMem) AllocFrameOn(preferred int) (Frame, error) {
	fs, err := pm.AllocFramesOn(preferred, 1)
	if err != nil {
		return NoFrame, err
	}
	return fs[0], nil
}

// AllocFramesOn allocates n frames with a node preference: the
// preferred node first, then the remaining nodes in deterministic
// (preferred+k) mod nnodes order — the simulated analogue of Linux's
// local-then-fallback zonelist. Within a node allocInRange's rule
// applies. A request can be satisfied across nodes when the preferred
// node runs dry (callers see where pages landed via NodeOf).
func (pm *PhysMem) AllocFramesOn(preferred int, npages units.Pages) ([]Frame, error) {
	if preferred < 0 || preferred >= pm.nnodes {
		return nil, fmt.Errorf("mem: AllocFramesOn: node %d outside [0,%d)", preferred, pm.nnodes)
	}
	n := int(npages)
	if n > pm.nfree {
		return nil, ErrNoMemory
	}
	out := make([]Frame, 0, n)
	for k := 0; k < pm.nnodes && len(out) < n; k++ {
		lo, hi := pm.nodeBounds((preferred + k) % pm.nnodes)
		out = pm.allocInRange(lo, hi, out, n)
	}
	return out, nil
}
