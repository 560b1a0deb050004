package kernel

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"copier/internal/core"
	"copier/internal/sim"
	"copier/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// busyStride is the gap between BusyCycles reads: a prime, so the reads
// land at every offset inside the service threads' 40- and 60-cycle
// waits over a window.
const busyStride sim.Time = 37

// busyWorld is one machine whose copierd cores are read mid-run.
type busyWorld struct {
	name string
	// build returns the machine, its service, and the first core id of
	// its copierd threads.
	build func(t *testing.T) (*Machine, *core.Service, int)
}

// busyReads is how many strided reads each window takes.
const busyReads = 128

// busyWindows start each world's runs of busyReads reads at start-up (a doorbell rings
// at 3,001), before the first NAPI sleep (the XSave at 500,900 on an
// idle slot, at 504,411 on the slot that served the copy), and before
// the first timeout wakes' sweeps and second sleeps.
var busyWindows = []sim.Time{0, 500_600, 792_600}

// copyAt spawns an app thread on process p that submits one 4 KB copy
// through libCopier once when has passed, then syncs it.
func copyAt(t *testing.T, m *Machine, p *Process, when sim.Time) {
	t.Helper()
	a := m.AttachCopier(p)
	const n = 4 << 10
	src, dst := mkbuf(t, p, n, 0x5A), mkbuf(t, p, n, 0)
	m.Spawn(p, "app", func(th *Thread) {
		th.Sleep(when)
		if err := a.Lib.Amemcpy(th, dst, src, n); err != nil {
			t.Error(err)
			return
		}
		if err := a.Lib.Csync(th, dst, n); err != nil {
			t.Error(err)
		}
	})
}

var busyWorlds = []busyWorld{
	{"flat/1-thread", func(t *testing.T) (*Machine, *core.Service, int) {
		m := newMachine(2)
		svc := m.InstallCopier(core.DefaultConfig(), 1, 1)
		copyAt(t, m, m.NewProcess("app"), 3_001)
		return m, svc, 1
	}},
	{"flat/2-threads", func(t *testing.T) (*Machine, *core.Service, int) {
		m := newMachine(3)
		svc := m.InstallCopier(core.DefaultConfig(), 2, 1)
		copyAt(t, m, m.NewProcess("app"), 3_001)
		return m, svc, 1
	}},
	{"numa/2-node", func(t *testing.T) (*Machine, *core.Service, int) {
		m := NewMachine(Config{Topo: topo.NUMA(2, 2, 64<<20)})
		svc := m.InstallCopier(core.DefaultConfig(), 2, 2)
		copyAt(t, m, m.NewProcessOn("app", 1), 3_001)
		return m, svc, 2
	}},
}

// TestServiceBusyCyclesGolden pins when copierd's CPU time is booked:
// each world is run in Run(now+busyStride) slices over a few windows,
// and every slice prints the BusyCycles of each copierd core, so a
// wait's cycles show up at the read after the wait ends, not before.
// Regenerate with `go test ./internal/kernel -run
// TestServiceBusyCyclesGolden -update`.
func TestServiceBusyCyclesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, w := range busyWorlds {
		fmt.Fprintf(&buf, "== %s\n", w.name)
		m, svc, first := w.build(t)
		for _, start := range busyWindows {
			if err := m.Run(start); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < busyReads; i++ {
				if err := m.Run(m.Now() + busyStride); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%8d", m.Now())
				for _, c := range m.Cores()[first:] {
					fmt.Fprintf(&buf, " %d", c.BusyCycles)
				}
				fmt.Fprintf(&buf, " sweeps=%d sleeps=%d\n", svc.Stats.PollSweeps, svc.Stats.Sleeps)
			}
		}
	}
	golden := filepath.Join("testdata", "service_busy.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output diverges from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}
