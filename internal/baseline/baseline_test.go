package baseline

import (
	"bytes"
	"testing"

	"copier/internal/core"
	"copier/internal/kernel"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

func newM(cores int) *kernel.Machine {
	return kernel.NewMachine(kernel.Config{Cores: cores, MemBytes: 256 << 20})
}

func mkbuf(t *testing.T, p *kernel.Process, n units.Bytes, fill byte) mem.VA {
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

func TestZIOInterceptsLargeAlignedCopies(t *testing.T) {
	m := newM(2)
	p := m.NewProcess("app")
	z := NewZIO(m, 4<<10)
	const n = 64 << 10
	src := mkbuf(t, p, n, 0x9A)
	dst := mkbuf(t, p, n, 0)
	var copyTime sim.Time
	th := m.Spawn(p, "w", func(th *kernel.Thread) {
		start := th.Now()
		if err := z.Memcpy(th, dst, src, n); err != nil {
			t.Error(err)
		}
		copyTime = th.Now() - start
		// Reading dst sees the data through the shared frames.
		buf := make([]byte, n)
		if err := p.AS.ReadAt(dst, buf); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0x9A}, n)) {
			t.Error("zIO remap lost data")
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	if z.Intercepted != 1 {
		t.Fatalf("intercepted = %d", z.Intercepted)
	}
	// Remapping must beat a real 64KB copy.
	realCopy := sim.Time(64<<10) / 8
	if copyTime >= realCopy {
		t.Fatalf("zIO remap (%d) not cheaper than copy (%d)", copyTime, realCopy)
	}
	// Frames are shared.
	sf, _, _ := p.AS.Translate(src)
	df, _, _ := p.AS.Translate(dst)
	if sf != df {
		t.Fatal("pages not shared")
	}
}

func TestZIOFallsBackSmallOrMisaligned(t *testing.T) {
	m := newM(2)
	p := m.NewProcess("app")
	z := NewZIO(m, 16<<10)
	src := mkbuf(t, p, 32<<10, 0x21)
	dst := mkbuf(t, p, 32<<10, 0)
	th := m.Spawn(p, "w", func(th *kernel.Thread) {
		// Below threshold.
		if err := z.Memcpy(th, dst, src, 4<<10); err != nil {
			t.Error(err)
		}
		// Mismatched offsets: handled by library indirection (alias),
		// not remapping.
		if err := z.Memcpy(th, dst+7, src+100, 20<<10); err != nil {
			t.Error(err)
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	if z.FellBack != 1 || z.Intercepted != 1 {
		t.Fatalf("fellback=%d intercepted=%d", z.FellBack, z.Intercepted)
	}
	if z.Aliases() != 1 || z.PagesShared != 0 {
		t.Fatalf("aliases=%d shared=%d", z.Aliases(), z.PagesShared)
	}
}

func TestZIOBufferReuseFaults(t *testing.T) {
	// The Redis problem (§6.2.1): reusing the source buffer after a
	// zIO "copy" triggers CoW materialization faults.
	m := newM(2)
	p := m.NewProcess("app")
	z := NewZIO(m, 4<<10)
	const n = 32 << 10
	src := mkbuf(t, p, n, 0x66)
	dst := mkbuf(t, p, n, 0)
	th := m.Spawn(p, "w", func(th *kernel.Thread) {
		if err := z.Memcpy(th, dst, src, n); err != nil {
			t.Error(err)
		}
		faultsBefore := p.AS.Faults[mem.FaultCoW]
		// Reuse the input buffer: every shared page must break.
		if err := z.TouchWrite(th, src, n); err != nil {
			t.Error(err)
		}
		if err := p.AS.WriteAt(src, bytes.Repeat([]byte{0x77}, n)); err != nil {
			t.Error(err)
		}
		if p.AS.Faults[mem.FaultCoW] == faultsBefore {
			t.Error("buffer reuse caused no CoW faults")
		}
		// dst still holds the original data.
		buf := make([]byte, n)
		if err := p.AS.ReadAt(dst, buf); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0x66}, n)) {
			t.Error("CoW break corrupted the logical copy")
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
}

func TestUBSkipsTrapButSlowsCompute(t *testing.T) {
	m := newM(2)
	sender := m.NewProcess("s")
	receiver := m.NewProcess("r")
	u := NewUB()
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 2 << 10
	sbuf := mkbuf(t, sender, n, 0x31)
	rbuf := mkbuf(t, receiver, n, 0)
	var ubTime sim.Time
	tx := m.Spawn(sender, "tx", func(th *kernel.Thread) {
		start := th.Now()
		if err := u.SendNT(th, sa, sbuf, n); err != nil {
			t.Error(err)
		}
		ubTime = th.Now() - start
	})
	rx := m.Spawn(receiver, "rx", func(th *kernel.Thread) {
		if _, err := u.RecvNT(th, sb, rbuf, n); err != nil {
			t.Error(err)
		}
		got := make([]byte, n)
		if err := receiver.AS.ReadAt(rbuf, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x31}, n)) {
			t.Error("UB path corrupted data")
		}
	})
	if err := m.RunApps(tx, rx); err != nil {
		t.Fatal(err)
	}
	// UB must be cheaper than the trapped path for small messages.
	m2 := newM(2)
	s2 := m2.NewProcess("s")
	sa2, sb2 := m2.Net().SocketPair("a", "b")
	sb2.Close()
	_ = sb2
	sbuf2 := mkbuf(t, s2, n, 1)
	var syscallTime sim.Time
	tx2 := m2.Spawn(s2, "tx", func(th *kernel.Thread) {
		start := th.Now()
		if err := sa2.Send(th, sbuf2, n, false); err != nil {
			t.Error(err)
		}
		syscallTime = th.Now() - start
	})
	if err := m2.RunApps(tx2); err != nil {
		t.Fatal(err)
	}
	if ubTime >= syscallTime {
		t.Fatalf("UB send (%d) not cheaper than syscall send (%d)", ubTime, syscallTime)
	}
	// And its compute slowdown is > 1x.
	if u.Slow(1000) <= 1000 {
		t.Fatal("UB slowdown missing")
	}
}

func TestIOUringCompletesOps(t *testing.T) {
	m := newM(3)
	pTx := m.NewProcess("tx")
	pRx := m.NewProcess("rx")
	sa, sb := m.Net().SocketPair("a", "b")
	u := NewIOUring(m)
	const n = 8 << 10
	sbuf := mkbuf(t, pTx, n, 0x52)
	rbuf := mkbuf(t, pRx, n, 0)
	app := m.Spawn(pTx, "app", func(th *kernel.Thread) {
		send := &SQE{Send: true, Sock: sa, Proc: pTx, Buf: sbuf, Len: n}
		recv := &SQE{Send: false, Sock: sb, Proc: pRx, Buf: rbuf, Len: n}
		u.Submit(th, send, recv)
		u.WaitAll(th, send, recv)
		if send.Err != nil || recv.Err != nil {
			t.Errorf("errs: %v %v", send.Err, recv.Err)
		}
		if recv.Got != n {
			t.Errorf("got = %d", recv.Got)
		}
	})
	if err := m.RunApps(app); err != nil {
		t.Fatal(err)
	}
	u.Stop()
	got := make([]byte, n)
	if err := pRx.AS.ReadAt(rbuf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x52}, n)) {
		t.Fatal("io_uring corrupted data")
	}
}

func TestIOUringBatchAmortizes(t *testing.T) {
	// Batched submission of B sends must cost less per op than
	// serial submit+wait of each.
	const n = 1 << 10
	const b = 16
	run := func(batch bool) sim.Time {
		m := newM(3)
		p := m.NewProcess("app")
		sa, sb := m.Net().SocketPair("a", "b")
		_ = sb
		u := NewIOUring(m)
		sbuf := mkbuf(t, p, n, 1)
		var total sim.Time
		app := m.Spawn(p, "app", func(th *kernel.Thread) {
			start := th.Now()
			if batch {
				var sqes []*SQE
				for i := 0; i < b; i++ {
					sqes = append(sqes, &SQE{Send: true, Sock: sa, Proc: p, Buf: sbuf, Len: n})
				}
				u.Submit(th, sqes...)
				u.WaitAll(th, sqes...)
			} else {
				for i := 0; i < b; i++ {
					sqe := &SQE{Send: true, Sock: sa, Proc: p, Buf: sbuf, Len: n}
					u.Submit(th, sqe)
					u.WaitAll(th, sqe)
				}
			}
			total = th.Now() - start
		})
		if err := m.RunApps(app); err != nil {
			t.Fatal(err)
		}
		u.Stop()
		return total
	}
	batched := run(true)
	serial := run(false)
	if batched >= serial {
		t.Fatalf("batched (%d) not cheaper than serial (%d)", batched, serial)
	}
}

func TestIOUringWithCopierPath(t *testing.T) {
	m := newM(4)
	m.InstallCopier(core.DefaultConfig(), 1, 3)
	pTx := m.NewProcess("tx")
	pRx := m.NewProcess("rx")
	m.AttachCopier(pTx)
	rxAttach := m.AttachCopier(pRx)
	sa, sb := m.Net().SocketPair("a", "b")
	u := NewIOUring(m)
	const n = 16 << 10
	sbuf := mkbuf(t, pTx, n, 0x8D)
	rbuf := mkbuf(t, pRx, n, 0)
	app := m.Spawn(pRx, "app", func(th *kernel.Thread) {
		send := &SQE{Send: true, Sock: sa, Proc: pTx, Buf: sbuf, Len: n}
		recv := &SQE{Send: false, Sock: sb, Proc: pRx, Buf: rbuf, Len: n}
		u.Submit(th, send, recv)
		u.WaitAll(th, send, recv)
		// The recv copy may still be in flight: csync before use.
		if err := rxAttach.Lib.Csync(th, rbuf, n); err != nil {
			t.Error(err)
		}
		got := make([]byte, n)
		if err := pRx.AS.ReadAt(rbuf, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x8D}, n)) {
			t.Error("copier io_uring corrupted data")
		}
	})
	if err := m.RunApps(app); err != nil {
		t.Fatal(err)
	}
	u.Stop()
	if m.Copier().Stats.TasksExecuted == 0 {
		t.Fatal("copier never used")
	}
}
