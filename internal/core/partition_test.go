package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
)

// instantCtx runs service work outside any simulated thread: costs
// are dropped and nothing yields. Enough for teardown of a client with
// no in-flight DMA.
type instantCtx struct{ env *sim.Env }

func (c instantCtx) Exec(sim.Time)                           {}
func (c instantCtx) Block(*sim.Signal)                       {}
func (c instantCtx) SpinUntil(*sim.Signal)                   {}
func (c instantCtx) BlockTimeout(*sim.Signal, sim.Time) bool { return false }
func (c instantCtx) Now() sim.Time                           { return c.env.Now() }
func (c instantCtx) Env() *sim.Env                           { return c.env }

// newPartitionService builds a service over a nodes-node machine with
// just enough memory to register clients.
func newPartitionService(t *testing.T, nodes int) (*Service, *mem.PhysMem) {
	t.Helper()
	tp := topo.NUMA(nodes, 2, 1<<20)
	pm := mem.NewPhysMem(tp.TotalMem())
	if err := pm.ConfigureNodes(nodes); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topo = tp
	return NewService(sim.NewEnv(), pm, cfg), pm
}

// refClientsOf recomputes slot's partition from the registration
// list: the slot's node's clients, striped over the node's threads.
func refClientsOf(s *Service, slot int) []*Client {
	nn := len(s.DMAs())
	perNode := s.ActiveThreads() / nn
	if perNode < 1 {
		perNode = 1
	}
	var onNode []*Client
	for _, c := range s.clients {
		if c.Node == slot%nn {
			onNode = append(onNode, c)
		}
	}
	var out []*Client
	for i, c := range onNode {
		if i%perNode == (slot/nn)%perNode {
			out = append(out, c)
		}
	}
	return out
}

// TestClientsOfCacheMatchesReference applies a seeded random sequence
// of client registrations, closes, kill-and-teardowns and thread-count
// changes to 1- and 4-node services. After every step the cached
// clientsOf(slot) must equal the from-scratch partition for every
// slot; with a thread count that is a multiple of the node count the
// slots must cover every client exactly once; and a partition handed
// out before the step must still hold its old contents (a sweep that
// yields mid-iteration keeps its snapshot).
func TestClientsOfCacheMatchesReference(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			s, pm := newPartitionService(t, nodes)
			ctx := instantCtx{s.env}
			rng := rand.New(rand.NewPCG(uint64(nodes), 7))
			maxSlot := 3 * nodes
			s.activeThreads = nodes
			var open []*Client
			for step := 0; step < 600; step++ {
				held := make([][]*Client, maxSlot)
				copies := make([][]*Client, maxSlot)
				for slot := range held {
					held[slot] = s.clientsOf(slot)
					copies[slot] = slices.Clone(held[slot])
				}
				op := rng.IntN(10)
				switch {
				case op < 4 || len(open) == 0:
					as := mem.NewAddrSpace(pm)
					// nodes+1 exercises the out-of-range fallback to node 0.
					c := s.NewClientOn(fmt.Sprintf("c%d", step), as, as, nil, rng.IntN(nodes+1))
					open = append(open, c)
				case op < 6:
					i := rng.IntN(len(open))
					s.CloseClient(open[i])
					open = slices.Delete(open, i, i+1)
				case op < 8:
					i := rng.IntN(len(open))
					s.KillClient(open[i])
					s.teardownClient(ctx, open[i])
					open = slices.Delete(open, i, i+1)
				default:
					s.activeThreads = rng.IntN(maxSlot + 1)
				}
				served := map[*Client]int{}
				for slot := 0; slot < maxSlot; slot++ {
					if got, want := s.clientsOf(slot), refClientsOf(s, slot); !slices.Equal(got, want) {
						t.Fatalf("step %d: clientsOf(%d) = %d clients, reference %d", step, slot, len(got), len(want))
					}
					if !slices.Equal(held[slot], copies[slot]) {
						t.Fatalf("step %d: partition of slot %d handed out earlier was mutated", step, slot)
					}
					if slot < s.activeThreads {
						for _, c := range s.clientsOf(slot) {
							served[c]++
						}
					}
				}
				if s.activeThreads > 0 && s.activeThreads%nodes == 0 {
					for _, c := range open {
						if served[c] != 1 {
							t.Fatalf("step %d: client %s served by %d of %d threads", step, c.Name, served[c], s.activeThreads)
						}
					}
				}
			}
		})
	}
}

// TestClientsOfAllocFree pins the steady-state poll: with no client or
// thread-count change, clientsOf on a 4-node service is a cache read.
func TestClientsOfAllocFree(t *testing.T) {
	s, pm := newPartitionService(t, 4)
	for i := 0; i < 16; i++ {
		as := mem.NewAddrSpace(pm)
		s.NewClientOn("c", as, as, nil, i%4)
	}
	s.activeThreads = 8
	var n int
	poll := func() {
		for slot := 0; slot < 8; slot++ {
			n += len(s.clientsOf(slot))
		}
	}
	poll() // warm the cache
	if got := testing.AllocsPerRun(100, poll); got != 0 {
		t.Fatalf("steady-state clientsOf allocates %v per poll, want 0", got)
	}
	if n != 16*102 {
		t.Fatalf("poll saw %d client entries, want %d", n, 16*102)
	}
}
