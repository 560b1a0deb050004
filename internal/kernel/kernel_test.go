package kernel

import (
	"bytes"
	"copier/internal/units"
	"testing"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
)

func newMachine(cores int) *Machine {
	return NewMachine(Config{Cores: cores, MemBytes: 256 << 20})
}

func TestThreadExecAdvancesTime(t *testing.T) {
	m := newMachine(2)
	var elapsed sim.Time
	th := m.Spawn(nil, "w", func(t *Thread) {
		start := t.Now()
		t.Exec(10_000)
		elapsed = t.Now() - start
	})
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if elapsed != 10_000 {
		t.Fatalf("elapsed = %d", elapsed)
	}
	if th.BusyCycles != 10_000 {
		t.Fatalf("busy = %d", th.BusyCycles)
	}
}

func TestCPUContentionTimeshares(t *testing.T) {
	// 3 threads on 1 core, each needing 300k cycles: total wall time
	// ~900k (plus switches), and all must finish — round-robin, no
	// starvation.
	m := newMachine(1)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		m.Spawn(nil, "w", func(t *Thread) {
			t.Exec(300_000)
			ends = append(ends, t.Now())
		})
	}
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 3 {
		t.Fatalf("finished = %d", len(ends))
	}
	last := ends[2]
	if last < 900_000 {
		t.Fatalf("3x300k on one core finished at %d", last)
	}
	// Round-robin: completions are clustered near the end, not
	// serialized one-after-another-from-zero.
	if ends[0] < 700_000 {
		t.Fatalf("first finisher at %d suggests FIFO, not round-robin", ends[0])
	}
}

func TestTwoCoresRunInParallel(t *testing.T) {
	m := newMachine(2)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		m.Spawn(nil, "w", func(t *Thread) {
			t.Exec(500_000)
			ends = append(ends, t.Now())
		})
	}
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	for _, e := range ends {
		if e != 500_000 {
			t.Fatalf("ends = %v, want both 500k (parallel)", ends)
		}
	}
}

func TestDedicatedCoreExcludesOthers(t *testing.T) {
	m := newMachine(2)
	var holder *Thread
	holder = m.Spawn(nil, "copierd", func(t *Thread) {
		t.SetNoPreempt(true)
		t.Exec(1_000_000)
	})
	m.DedicateCore(1, holder)
	var otherEnd sim.Time
	m.Spawn(nil, "app", func(t *Thread) {
		t.Exec(100_000)
		otherEnd = t.Now()
	})
	m.Spawn(nil, "app2", func(t *Thread) {
		t.Exec(100_000)
	})
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	// app and app2 share core 0 only: the second to finish needs
	// >=200k. If they had stolen core 1 both would finish at 100k.
	if otherEnd < 100_000 {
		t.Fatalf("otherEnd = %d", otherEnd)
	}
	if m.cores[1].BusyCycles < 1_000_000 {
		t.Fatalf("dedicated core busy = %d", m.cores[1].BusyCycles)
	}
	if got := m.cores[0].BusyCycles; got < 200_000 {
		t.Fatalf("shared core busy = %d, want >= 200k", got)
	}
}

func TestBlockReleasesCore(t *testing.T) {
	m := newMachine(1)
	sig := sim.NewSignal("ev")
	var ranWhileBlocked bool
	m.Spawn(nil, "blocker", func(t *Thread) {
		t.Block(sig)
	})
	m.Spawn(nil, "worker", func(t *Thread) {
		t.Exec(50_000)
		ranWhileBlocked = true
		sig.Broadcast(m.Env)
	})
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if !ranWhileBlocked {
		t.Fatal("worker never ran — blocker held the core")
	}
}

func TestSpinUntilHoldsCore(t *testing.T) {
	m := newMachine(1)
	sig := sim.NewSignal("ev")
	workerRan := false
	m.Spawn(nil, "spinner", func(t *Thread) {
		m.Env.Schedule(100_000, func() { sig.Broadcast(m.Env) })
		t.SpinUntil(sig)
	})
	m.Spawn(nil, "worker", func(t *Thread) {
		t.Exec(10)
		workerRan = true
	})
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if !workerRan {
		t.Fatal("worker starved forever")
	}
	// The spinner's busy time includes the spin.
	if m.cores[0].BusyCycles < 100_000 {
		t.Fatalf("core busy = %d, spin not charged", m.cores[0].BusyCycles)
	}
}

func TestForkProcessCoW(t *testing.T) {
	m := newMachine(2)
	p := m.NewProcess("parent")
	va := p.AS.MMap(mem.PageSize, mem.PermRead|mem.PermWrite, "d")
	if err := p.AS.WriteAt(va, []byte("genesis")); err != nil {
		t.Fatal(err)
	}
	c := m.ForkProcess(p, "child")
	buf := make([]byte, 7)
	if err := c.AS.ReadAt(va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "genesis" {
		t.Fatalf("child sees %q", buf)
	}
}

// setupCopier builds a machine with the Copier service on a dedicated
// core and one attached process.
func setupCopier(t *testing.T, cores int) (*Machine, *Process) {
	t.Helper()
	m := newMachine(cores)
	m.InstallCopier(core.DefaultConfig(), 1, cores-1)
	p := m.NewProcess("app")
	m.AttachCopier(p)
	return m, p
}

// runApps drives the machine until the given threads finish, then
// stops the service and drains.
func runApps(t *testing.T, m *Machine, ths ...*Thread) {
	t.Helper()
	if err := m.RunApps(ths...); err != nil {
		t.Fatal(err)
	}
}

func mkbuf(t *testing.T, p *Process, n units.Bytes, fill byte) mem.VA {
	t.Helper()
	va := p.AS.MMap(n, mem.PermRead|mem.PermWrite, "buf")
	if _, err := p.AS.Populate(va, n, true); err != nil {
		t.Fatal(err)
	}
	if fill != 0 {
		if err := p.AS.WriteAt(va, bytes.Repeat([]byte{fill}, int(n))); err != nil {
			t.Fatal(err)
		}
	}
	return va
}

func TestSendRecvBaseline(t *testing.T) {
	m := newMachine(2)
	sender := m.NewProcess("sender")
	receiver := m.NewProcess("receiver")
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 16 << 10
	sbuf := mkbuf(t, sender, n, 0x7E)
	rbuf := mkbuf(t, receiver, n, 0)
	var got units.Bytes
	tx := m.Spawn(sender, "tx", func(th *Thread) {
		if err := sa.Send(th, sbuf, n, false); err != nil {
			t.Error(err)
		}
	})
	rx := m.Spawn(receiver, "rx", func(th *Thread) {
		g, err := sb.Recv(th, rbuf, n, false)
		if err != nil {
			t.Error(err)
		}
		got = g
	})
	runApps(t, m, tx, rx)
	if got != n {
		t.Fatalf("got = %d", got)
	}
	data := make([]byte, n)
	if err := receiver.AS.ReadAt(rbuf, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0x7E}, n)) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestSendRecvCopierOverlapsAndIsCorrect(t *testing.T) {
	const n = 16 << 10
	run := func(copier bool) (sim.Time, []byte) {
		var m *Machine
		var sender, receiver *Process
		if copier {
			m = newMachine(3)
			m.InstallCopier(core.DefaultConfig(), 1, 2)
			sender = m.NewProcess("sender")
			receiver = m.NewProcess("receiver")
			m.AttachCopier(sender)
			m.AttachCopier(receiver)
		} else {
			m = newMachine(3)
			sender = m.NewProcess("sender")
			receiver = m.NewProcess("receiver")
		}
		sa, sb := m.Net().SocketPair("a", "b")
		sbuf := mkbuf(t, sender, n, 0x3C)
		rbuf := mkbuf(t, receiver, n, 0)
		var latency sim.Time
		data := make([]byte, n)
		const iters = 20
		tx := m.Spawn(sender, "tx", func(th *Thread) {
			// Warm-up message, then measure steady state.
			for i := 0; i < 3; i++ {
				if err := sa.Send(th, sbuf, n, copier); err != nil {
					t.Error(err)
				}
				th.Exec(50_000)
			}
			start := th.Now()
			for i := 0; i < iters; i++ {
				if err := sa.Send(th, sbuf, n, copier); err != nil {
					t.Error(err)
				}
				th.Exec(50_000) // app pacing between sends
			}
			latency = (th.Now() - start - iters*50_000) / iters
		})
		rx := m.Spawn(receiver, "rx", func(th *Thread) {
			for i := 0; i < iters+3; i++ {
				_, err := sb.Recv(th, rbuf, n, copier)
				if err == nil && copier {
					// App work during the Copy-Use window, then sync.
					th.Exec(cycles.Mul(n, cycles.ParseByteNum, cycles.ParseByteDen))
					err = m.Attachment(receiver).Lib.Csync(th, rbuf, n)
				}
				if err != nil {
					t.Error(err)
				}
			}
			if err := receiver.AS.ReadAt(rbuf, data); err != nil {
				t.Error(err)
			}
		})
		runApps(t, m, tx, rx)
		return latency, data
	}
	baseLat, baseData := run(false)
	copLat, copData := run(true)
	want := bytes.Repeat([]byte{0x3C}, n)
	if !bytes.Equal(baseData, want) || !bytes.Equal(copData, want) {
		t.Fatal("payload corrupted")
	}
	if copLat >= baseLat {
		t.Fatalf("Copier send latency %d !< baseline %d", copLat, baseLat)
	}
}

func TestZeroCopySendAlignmentAndOwnership(t *testing.T) {
	m := newMachine(2)
	sender := m.NewProcess("s")
	receiver := m.NewProcess("r")
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 32 << 10
	sbuf := mkbuf(t, sender, n, 0x44) // MMap is page-aligned
	rbuf := mkbuf(t, receiver, n, 0)
	tx := m.Spawn(sender, "tx", func(th *Thread) {
		// Unaligned buffer is rejected.
		if _, err := sa.SendZeroCopy(th, sbuf+1, 512); err != ErrZeroCopyUnsupported {
			t.Errorf("unaligned err = %v", err)
		}
		z, err := sa.SendZeroCopy(th, sbuf, n)
		if err != nil {
			t.Error(err)
			return
		}
		// Buffer pinned until transmission completes.
		if sender.AS.PTEOf(sbuf).Pinned == 0 {
			t.Error("zc buffer not pinned")
		}
		z.Wait(th)
		if sender.AS.PTEOf(sbuf).Pinned != 0 {
			t.Error("zc buffer still pinned after completion")
		}
	})
	var got []byte
	rx := m.Spawn(receiver, "rx", func(th *Thread) {
		g, err := sb.Recv(th, rbuf, n, false)
		if err != nil || g != n {
			t.Errorf("recv: %d %v", g, err)
		}
		got = make([]byte, n)
		if err := receiver.AS.ReadAt(rbuf, got); err != nil {
			t.Error(err)
		}
	})
	runApps(t, m, tx, rx)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x44}, n)) {
		t.Fatal("zero-copy payload corrupted")
	}
}

func TestSkbPoolReuse(t *testing.T) {
	m := newMachine(2)
	p := m.NewProcess("p")
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 4 << 10
	sbuf := mkbuf(t, p, n, 1)
	rbuf := mkbuf(t, p, n, 0)
	w := m.Spawn(p, "worker", func(th *Thread) {
		for i := 0; i < 5; i++ {
			if err := sa.Send(th, sbuf, n, false); err != nil {
				t.Error(err)
			}
			if _, err := sb.Recv(th, rbuf, n, false); err != nil {
				t.Error(err)
			}
		}
	})
	runApps(t, m, w)
	if got := len(m.Net().pool.free[classOf(n)]); got != 1 {
		t.Fatalf("pool free list = %d, want 1 reused buffer", got)
	}
}

func TestBinderTransactionBaselineAndCopier(t *testing.T) {
	const nStrings = 20
	const strLen = 1024
	run := func(copier bool) (sim.Time, bool) {
		m := newMachine(3)
		m.InstallCopier(core.DefaultConfig(), 1, 2)
		client := m.NewProcess("client")
		server := m.NewProcess("server")
		m.AttachCopier(client)
		srvAttach := m.AttachCopier(server)
		b := m.NewBinder()
		conn := b.Connect(server, 1<<20)

		// Marshal n strings client-side.
		msgLen := units.Bytes(nStrings * (4 + strLen))
		data := mkbuf(t, client, msgLen, 0)
		off := units.Bytes(0)
		for i := 0; i < nStrings; i++ {
			off = WriteString(client.AS, data, off, bytes.Repeat([]byte{byte('A' + i%26)}, strLen))
		}
		reply := mkbuf(t, client, 64, 0)

		ok := true
		var latency sim.Time
		const iters = 10
		srv := m.Spawn(server, "server", func(th *Thread) {
			rbuf := mkbuf(t, server, 64, 0xEE)
			for it := 0; it < iters; it++ {
				view, n := conn.WaitTransaction(th)
				parcel := conn.OpenParcel(srvAttach.Lib, view, n, copier)
				out := make([]byte, strLen)
				for i := 0; i < nStrings; i++ {
					got := parcel.ReadString(th, out)
					if got != strLen || out[0] != byte('A'+i%26) {
						ok = false
					}
				}
				conn.Reply(th, rbuf, 64)
			}
		})
		cli := m.Spawn(client, "client", func(th *Thread) {
			start := th.Now()
			for it := 0; it < iters; it++ {
				if got := conn.Transact(th, data, msgLen, reply, copier); got != 64 {
					ok = false
				}
			}
			latency = (th.Now() - start) / iters
		})
		runApps(t, m, srv, cli)
		return latency, ok
	}
	baseLat, okB := run(false)
	copLat, okC := run(true)
	if !okB || !okC {
		t.Fatal("binder data corrupted")
	}
	if copLat >= baseLat {
		t.Fatalf("Copier binder latency %d !< baseline %d", copLat, baseLat)
	}
	imp := 1 - float64(copLat)/float64(baseLat)
	// Paper: 9.6%-35.5% reduction over the n=10..800 sweep.
	if imp < 0.05 || imp > 0.6 {
		t.Fatalf("binder improvement %.1f%% outside plausible band", imp*100)
	}
}

func TestCoWFaultBaselineVsCopier(t *testing.T) {
	const pages = 512 // 2MB region
	run := func(copier bool) sim.Time {
		m := newMachine(3)
		m.InstallCopier(core.DefaultConfig(), 1, 2)
		p := m.NewProcess("app")
		m.AttachCopier(p)
		region := mkbuf(t, p, pages*mem.PageSize, 0x5F)
		child := m.ForkProcess(p, "child")
		_ = child
		var blocked sim.Time
		f := m.Spawn(p, "faulter", func(th *Thread) {
			res, err := th.HandleCoWFault(p.AS, region, pages*mem.PageSize, copier)
			if err != nil {
				t.Error(err)
			}
			if res.Copied != pages*mem.PageSize {
				t.Errorf("copied = %d", res.Copied)
			}
			blocked = res.Blocked
			// The data must be intact after the break.
			buf := make([]byte, 64)
			if err := p.AS.ReadAt(region+mem.VA((pages-1)*mem.PageSize), buf); err != nil {
				t.Error(err)
			}
			if buf[0] != 0x5F {
				t.Error("CoW break lost data")
			}
		})
		runApps(t, m, f)
		return blocked
	}
	base := run(false)
	cop := run(true)
	if cop >= base {
		t.Fatalf("Copier CoW blocking %d !< baseline %d", cop, base)
	}
	red := 1 - float64(cop)/float64(base)
	// Paper: 71.8% reduction for 2MB pages.
	if red < 0.4 {
		t.Fatalf("2MB CoW reduction = %.1f%%, want substantial", red*100)
	}
}

func TestCoWSinglePageSmallGain(t *testing.T) {
	run := func(copier bool) sim.Time {
		m := newMachine(3)
		m.InstallCopier(core.DefaultConfig(), 1, 2)
		p := m.NewProcess("app")
		m.AttachCopier(p)
		region := mkbuf(t, p, mem.PageSize, 0x11)
		m.ForkProcess(p, "child")
		var blocked sim.Time
		f := m.Spawn(p, "faulter", func(th *Thread) {
			res, err := th.HandleCoWFault(p.AS, region, mem.PageSize, copier)
			if err != nil {
				t.Error(err)
			}
			blocked = res.Blocked
		})
		runApps(t, m, f)
		return blocked
	}
	base := run(false)
	cop := run(true)
	// 4KB: fixed costs dominate; difference must be small either way
	// (paper: 8.0% reduction).
	ratio := float64(cop) / float64(base)
	if ratio > 1.3 || ratio < 0.5 {
		t.Fatalf("4KB CoW ratio = %.2f, want near 1", ratio)
	}
}

func TestSyscallChargesBoundaryCosts(t *testing.T) {
	m := newMachine(2)
	p := m.NewProcess("app")
	var dur sim.Time
	th0 := m.Spawn(p, "t", func(th *Thread) {
		start := th.Now()
		th.Syscall("noop", func() {})
		dur = th.Now() - start
	})
	runApps(t, m, th0)
	if dur != cycles.SyscallTrap+cycles.SyscallReturn {
		t.Fatalf("syscall cost = %d", dur)
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := newMachine(2)
	m.Spawn(nil, "w", func(t *Thread) { t.Exec(1_000_000) })
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	e := m.Energy()
	// 1M busy + 1M idle core-cycles.
	want := 1_000_000*m.EnergyPerBusyCycle + 1_000_000*m.EnergyPerIdleCycle
	if e != want {
		t.Fatalf("energy = %f, want %f", e, want)
	}
}

func TestCgroupSharesFlowToCopier(t *testing.T) {
	m := newMachine(2)
	m.InstallCopier(core.DefaultConfig(), 1, 1)
	g := m.NewCGroup("bg", 50)
	p := m.NewProcess("app")
	p.CGroup = g
	a := m.AttachCopier(p)
	if a.Client.Group.Shares != 50 {
		t.Fatalf("shares = %d", a.Client.Group.Shares)
	}
}

// TestSyncCopiesAllocFree: a warm 64 KB UserCopy and KernelCopy stage
// their bytes in the machine's buffer instead of a fresh one per call.
func TestSyncCopiesAllocFree(t *testing.T) {
	const n = 64 << 10
	m := newMachine(1)
	p := m.NewProcess("app")
	src, dst := mkbuf(t, p, n, 0x5A), mkbuf(t, p, n, 0)
	kva := m.KernelAS.MMap(n, mem.PermRead|mem.PermWrite, "kbuf")
	if _, err := m.KernelAS.Populate(kva, n, true); err != nil {
		t.Fatal(err)
	}
	var user, kernel float64
	m.Spawn(p, "w", func(th *Thread) {
		user = testing.AllocsPerRun(20, func() {
			if err := th.UserCopy(dst, src, n); err != nil {
				t.Error(err)
			}
		})
		kernel = testing.AllocsPerRun(20, func() {
			if err := th.KernelCopy(m.KernelAS, kva, p.AS, src, n); err != nil {
				t.Error(err)
			}
		})
	})
	if err := m.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if user != 0 || kernel != 0 {
		t.Errorf("warm 64 KB copies allocate %.1f (UserCopy) and %.1f (KernelCopy) per call; want 0", user, kernel)
	}
	got := make([]byte, n)
	if err := m.KernelAS.ReadAt(kva, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, n)) {
		t.Error("KernelCopy moved the wrong bytes")
	}
}
