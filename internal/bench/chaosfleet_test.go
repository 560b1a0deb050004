package bench

import (
	"testing"

	"copier/internal/sim"
)

// TestChaosFleetInvariants runs the worst-day sweep once and checks
// the resilience acceptance bar on the raw results:
//
//   - Zero accepted-task loss: every ring-accepted task reaches a
//     terminal state — completed, shed with a definite error, or
//     failed with a definite error — even though one engine dies
//     permanently mid-run.
//   - The worst day actually happened: the engine death registered,
//     its in-flight chunks were re-steered, engines were quarantined
//     and readmitted by probes, and the overload window shed work.
//   - Bounded degradation: p99 of accepted tasks stays within 5x the
//     unloaded baseline's p99, time-to-recover is finite, and the
//     backlog stays bounded.
//   - No pin leaks: shed and failed tasks released everything.
func TestChaosFleetInvariants(t *testing.T) {
	rs := ChaosFleetQuickResults()
	if len(rs) != 2 {
		t.Fatalf("expected baseline + worst-day, got %d rows", len(rs))
	}
	base, worst := rs[0], rs[1]

	for _, r := range rs {
		if r.Accepted == 0 {
			t.Fatalf("%s: no tasks accepted", r.Name)
		}
		if r.Lost != 0 {
			t.Errorf("%s: %d accepted tasks lost without a terminal state", r.Name, r.Lost)
		}
		if got := r.Completed + r.Rejected + r.DeadlineShed + r.Failed + r.Lost; got != r.Accepted {
			t.Errorf("%s: terminal classes sum to %d, accepted %d", r.Name, got, r.Accepted)
		}
		if r.LeakedPins != 0 {
			t.Errorf("%s: %d pins leaked", r.Name, r.LeakedPins)
		}
	}

	// Baseline is the unloaded reference: nothing shed, nothing failed.
	if base.Failed != 0 || base.Rejected != 0 || base.DeadlineShed != 0 {
		t.Errorf("baseline had failures/shed: %+v", *base)
	}
	if base.EngineDeaths != 0 {
		t.Errorf("baseline lost an engine: %d deaths", base.EngineDeaths)
	}

	// The worst day must actually exercise every mechanism.
	if worst.EngineDeaths != 1 {
		t.Errorf("worst-day engine deaths = %d, want 1", worst.EngineDeaths)
	}
	if worst.Resteered == 0 {
		t.Error("worst-day re-steered no chunks off the dead engine")
	}
	if worst.Quarantines == 0 || worst.ProbeRecoveries == 0 {
		t.Errorf("worst-day quarantine cycle not exercised: %d quarantines, %d probe recoveries",
			worst.Quarantines, worst.ProbeRecoveries)
	}
	shed := int(worst.OverloadShedN) + worst.DeadlineShed + int(worst.BrownoutShedN)
	if shed == 0 {
		t.Error("worst-day shed nothing under overload")
	}
	if worst.BrownoutEntries == 0 {
		t.Error("worst-day never entered brownout")
	}

	// Bounded degradation.
	if base.P99 <= 0 {
		t.Fatalf("baseline p99 = %d", base.P99)
	}
	if worst.P99 > 5*base.P99 {
		t.Errorf("worst-day p99 %d exceeds 5x baseline p99 %d", worst.P99, base.P99)
	}
	if worst.KillAt == 0 {
		t.Error("worst-day engine death not observed by the monitor")
	}
	if worst.TimeToRecover <= 0 {
		t.Errorf("worst-day did not recover (killAt=%d recoveredAt=%d)",
			worst.KillAt, worst.RecoveredAt)
	}
	// The admission bound caps any one client's pending list; the
	// backlog bound here is the coarser whole-service sanity check that
	// overload cannot grow the queues without limit.
	if maxB := worst.MaxBacklog; maxB > 64<<20 {
		t.Errorf("worst-day backlog unbounded: peak %d bytes", maxB)
	}
}

// TestCompressWindow pins the overload-window transform: gaps outside
// the window unchanged, gaps inside divided (floored at one cycle),
// arrival times still strictly increasing.
func TestCompressWindow(t *testing.T) {
	arr := []Arrival{{At: 10}, {At: 30}, {At: 31}, {At: 45}, {At: 60}}
	compressWindow(arr, 1, 3, 2)
	want := []sim.Time{10, 20, 21, 35, 50}
	for i, w := range want {
		if arr[i].At != w {
			t.Errorf("arr[%d].At = %d, want %d", i, arr[i].At, w)
		}
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At <= arr[i-1].At {
			t.Errorf("arrival times not strictly increasing at %d", i)
		}
	}
}
