package bench

import (
	"testing"

	"copier/internal/sim"
)

// TestChaosInvariants asserts the leak audit numerically on a direct
// run (the table only prints the counters).
func TestChaosInvariants(t *testing.T) {
	r := chaosRun(sim.NewEnv(), 2, 24)
	if r.leakedPins != 0 {
		t.Errorf("leaked pins: %d", r.leakedPins)
	}
	if r.ringSlots != 0 {
		t.Errorf("leaked ring slots: %d", r.ringSlots)
	}
	if r.backlog != 0 {
		t.Errorf("backlog drift: %d", r.backlog)
	}
	if !r.dataOK {
		t.Error("surviving client data corrupted")
	}
	if r.executed == 0 {
		t.Error("nothing executed")
	}
	if r.teardowns != 1 {
		t.Errorf("teardowns = %d", r.teardowns)
	}
	if r.retried == 0 || r.dmaFaults+r.cpuFaults == 0 {
		t.Errorf("chaos did not bite: faults=%d/%d retried=%d",
			r.dmaFaults, r.cpuFaults, r.retried)
	}
	if r.fallbackKB == 0 {
		t.Error("no DMA→CPU fallback observed")
	}
}
