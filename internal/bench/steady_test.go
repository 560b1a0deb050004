package bench

import "testing"

// TestServiceSteadyAllocs pins the steady-state allocation budget of
// the service dispatch path: one op = 40 independent 64KB copies
// through submit → admit → dispatch → completion. Everything on the
// path — scheduling, dependency analysis, translation, pinning,
// chunking, DMA batch submission, completion walk — runs out of
// recycled buffers; steady state measures 0 allocs/op. The asserted
// ceiling of 64 is the acceptance budget, left loose so unrelated
// runtime noise (timer wheels, GC assists) cannot flake the pin.
func TestServiceSteadyAllocs(t *testing.T) {
	ss := newSteadyService(64<<10, 40)
	defer ss.Close()
	ss.Op() // warm the scratch buffers to their steady capacity
	allocs := testing.AllocsPerRun(10, ss.Op)
	if allocs > 64 {
		t.Fatalf("steady service op allocates %.0f allocs/op; budget is 64", allocs)
	}
	t.Logf("steady service op: %.1f allocs/op", allocs)
}
