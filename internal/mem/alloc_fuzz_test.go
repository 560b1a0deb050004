package mem

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"copier/internal/units"
)

// refAlloc is the frame placement rule written out directly. With no
// preference (pref < 0) the whole frame space is one range; with one,
// the ranges are the nodes in (pref+k) mod n order. Within a range it
// takes the first free run of the count still wanted, else the lowest
// free frames. It marks what it takes in free, and returns nil when
// fewer than want frames are free.
func refAlloc(free []bool, nodes, pref, want int) []Frame {
	if want > countFree(free) {
		return nil
	}
	ranges := [][2]int{{0, len(free)}}
	if pref >= 0 {
		ranges = ranges[:0]
		per := len(free) / nodes
		for k := 0; k < nodes; k++ {
			n := (pref + k) % nodes
			hi := (n + 1) * per
			if n == nodes-1 {
				hi = len(free)
			}
			ranges = append(ranges, [2]int{n * per, hi})
		}
	}
	var out []Frame
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		if start := firstRun(free[lo:hi], want-len(out)); start >= 0 {
			lo, hi = lo+start, lo+start+want-len(out)
		}
		for f := lo; f < hi && len(out) < want; f++ {
			if free[f] {
				free[f] = false
				out = append(out, Frame(f))
			}
		}
	}
	return out
}

// firstRun returns the index of the first run of n free frames, or -1.
func firstRun(free []bool, n int) int {
	run := 0
	for i, ok := range free {
		if run++; !ok {
			run = 0
		}
		if run == n {
			return i - n + 1
		}
	}
	return -1
}

func countFree(free []bool) int {
	n := 0
	for _, ok := range free {
		if ok {
			n++
		}
	}
	return n
}

// FuzzAllocMatchesReference runs a seeded sequence of AllocFrames,
// AllocFramesOn and DecRef on a 1-node and a 4-node PhysMem of the
// same size and compares every returned frame list with refAlloc.
// Frees punch holes of random length, so later requests exercise both
// the run search and the lowest-free fallback, and node ranges fill
// up, so preferred requests spill to the next nodes.
func FuzzAllocMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(60))  // 64 frames: 16 per node
	f.Add(uint64(2), uint8(63))  // 67 frames: the last node owns 19
	f.Add(uint64(3), uint8(0))   // 4 frames: one per node
	f.Add(uint64(4), uint8(125)) // 129 frames
	f.Add(uint64(5), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, extra uint8) {
		nframes := 4 + int(extra)
		for _, nodes := range []int{1, 4} {
			pm := NewPhysMem(int64(nframes) * PageSize)
			if err := pm.ConfigureNodes(nodes); err != nil {
				t.Fatal(err)
			}
			free := make([]bool, nframes)
			for i := range free {
				free[i] = true
			}
			var held []Frame
			rng := rand.New(rand.NewPCG(seed, uint64(nodes)))
			for step := 0; step < 300; step++ {
				switch op := rng.IntN(5); {
				case op < 3:
					pref := -1
					if op == 1 {
						pref = rng.IntN(nodes)
					}
					want := 1 + rng.IntN(nframes/2)
					var got []Frame
					var err error
					if pref < 0 {
						got, err = pm.AllocFrames(units.Pages(want))
					} else {
						got, err = pm.AllocFramesOn(pref, units.Pages(want))
					}
					ref := refAlloc(free, nodes, pref, want)
					if ref == nil {
						if !errors.Is(err, ErrNoMemory) {
							t.Fatalf("nodes=%d step %d: alloc(pref %d, %d) with %d free: err = %v, want ErrNoMemory",
								nodes, step, pref, want, pm.FreeFrames(), err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("nodes=%d step %d: alloc(pref %d, %d): %v", nodes, step, pref, want, err)
					}
					if !slices.Equal(got, ref) {
						t.Fatalf("nodes=%d step %d: alloc(pref %d, %d) = %v, reference %v", nodes, step, pref, want, got, ref)
					}
					held = append(held, got...)
				default:
					if len(held) == 0 {
						continue
					}
					// Free a random stretch of what is held.
					i := rng.IntN(len(held))
					j := i + 1 + rng.IntN(min(len(held)-i, 8))
					for _, fr := range held[i:j] {
						pm.DecRef(fr)
						free[fr] = true
					}
					held = slices.Delete(held, i, j)
				}
				if pm.FreeFrames() != countFree(free) {
					t.Fatalf("nodes=%d step %d: FreeFrames = %d, reference %d", nodes, step, pm.FreeFrames(), countFree(free))
				}
			}
		}
	})
}
