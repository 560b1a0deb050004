package kernel

import (
	"bytes"
	"testing"

	"copier/internal/core"
	"copier/internal/sim"
)

func TestWaitAnyReadableMultiplexes(t *testing.T) {
	m := newMachine(3)
	srv := m.NewProcess("srv")
	cli := m.NewProcess("cli")
	notify := sim.NewSignal("epoll")
	var serverSocks []*Socket
	var clientSocks []*Socket
	for i := 0; i < 3; i++ {
		ss, cs := m.Net().SocketPair("s", "c")
		ss.SetReadyNotify(notify)
		serverSocks = append(serverSocks, ss)
		clientSocks = append(clientSocks, cs)
	}
	sbuf := mkbuf(t, cli, 1024, 0x42)
	rbuf := mkbuf(t, srv, 1024, 0)
	var order []int
	server := m.Spawn(srv, "server", func(th *Thread) {
		for i := 0; i < 3; i++ {
			s := WaitAnyReadable(th, notify, serverSocks)
			if s == nil {
				return
			}
			for j, x := range serverSocks {
				if x == s {
					order = append(order, j)
				}
			}
			if _, err := s.Recv(th, rbuf, 1024, false); err != nil {
				t.Error(err)
			}
		}
	})
	client := m.Spawn(cli, "client", func(th *Thread) {
		// Send on sockets 2, 0, 1 with gaps.
		for _, i := range []int{2, 0, 1} {
			if err := clientSocks[i].Send(th, sbuf, 1024, false); err != nil {
				t.Error(err)
			}
			th.Exec(50_000)
		}
	})
	if err := m.RunApps(server, client); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("serve order = %v", order)
	}
}

func TestWaitAnyReadableAllClosed(t *testing.T) {
	m := newMachine(2)
	p := m.NewProcess("p")
	notify := sim.NewSignal("epoll")
	ss, _ := m.Net().SocketPair("s", "c")
	ss.SetReadyNotify(notify)
	var got *Socket = ss
	th := m.Spawn(p, "t", func(th *Thread) {
		ss.Close()
		got = WaitAnyReadable(th, notify, []*Socket{ss})
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("WaitAnyReadable did not observe close")
	}
}

func TestBlockTimeoutFiresAndTimesOut(t *testing.T) {
	m := newMachine(2)
	sig := sim.NewSignal("x")
	var fired, timedOut bool
	th := m.Spawn(nil, "w", func(t *Thread) {
		timedOut = !t.BlockTimeout(sig, 10_000)
		m.Env.Schedule(1_000, func() { sig.Broadcast(m.Env) })
		fired = t.BlockTimeout(sig, 100_000)
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	if !timedOut || !fired {
		t.Fatalf("timedOut=%v fired=%v", timedOut, fired)
	}
}

func TestSkbClassSizing(t *testing.T) {
	if classOf(100) != 2048 || classOf(2048) != 2048 || classOf(2049) != 4096 || classOf(64<<10) != 64<<10 {
		t.Fatal("classOf wrong")
	}
}

func TestZeroCopyOwnershipReturnsBeforeDelivery(t *testing.T) {
	m := newMachine(2)
	snd := m.NewProcess("s")
	rcv := m.NewProcess("r")
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 64 << 10
	sbuf := mkbuf(t, snd, n, 0x77)
	rbuf := mkbuf(t, rcv, n, 0)
	var ownershipAt, deliveryAt sim.Time
	tx := m.Spawn(snd, "tx", func(th *Thread) {
		z, err := sa.SendZeroCopy(th, sbuf, n)
		if err != nil {
			t.Error(err)
			return
		}
		z.Wait(th)
		ownershipAt = th.Now()
	})
	rx := m.Spawn(rcv, "rx", func(th *Thread) {
		if _, err := sb.Recv(th, rbuf, n, false); err != nil {
			t.Error(err)
		}
		deliveryAt = th.Now()
		got := make([]byte, 16)
		if err := rcv.AS.ReadAt(rbuf, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x77}, 16)) {
			t.Error("payload wrong")
		}
	})
	if err := m.RunApps(tx, rx); err != nil {
		t.Fatal(err)
	}
	if ownershipAt >= deliveryAt {
		t.Fatalf("ownership (%d) should return before end-to-end delivery (%d)", ownershipAt, deliveryAt)
	}
}

// TestZeroCopyPinBalance pins SendZeroCopy's pin/unpin invariant: once
// buffer ownership has returned to the sender, the address space holds
// no pins, so teardown audits clean. The in-syscall error returns after
// a successful Pin (copy-in/copy-out of the skb staging buffer) are
// defensively unreachable — resolveRange has already mapped the user
// range and the skb VA comes from the kernel pool — but they carry
// explicit Unpin rollbacks so the balance holds on every path lifelint
// can see; this test regresses if the success-path Unpin (scheduled at
// NIC DMA completion) is lost.
func TestZeroCopyPinBalance(t *testing.T) {
	m := newMachine(2)
	snd := m.NewProcess("s")
	rcv := m.NewProcess("r")
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 64 << 10
	sbuf := mkbuf(t, snd, n, 0x21)
	rbuf := mkbuf(t, rcv, n, 0)
	tx := m.Spawn(snd, "tx", func(th *Thread) {
		z, err := sa.SendZeroCopy(th, sbuf, n)
		if err != nil {
			t.Error(err)
			return
		}
		z.Wait(th)
		if r := snd.AS.AuditLeaks(); !r.Clean() {
			t.Errorf("pins outstanding after ownership returned: %d pages (%d pins)", r.PinnedPages, r.PinCount)
		}
	})
	rx := m.Spawn(rcv, "rx", func(th *Thread) {
		if _, err := sb.Recv(th, rbuf, n, false); err != nil {
			t.Error(err)
		}
	})
	if err := m.RunApps(tx, rx); err != nil {
		t.Fatal(err)
	}
}

func TestRecvCopierFallsBackWithoutAttachment(t *testing.T) {
	m := newMachine(3)
	m.InstallCopier(core.DefaultConfig(), 1, 2)
	p := m.NewProcess("unattached")
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 4 << 10
	sbuf := mkbuf(t, p, n, 0x31)
	rbuf := mkbuf(t, p, n, 0)
	th := m.Spawn(p, "t", func(th *Thread) {
		if err := sa.Send(th, sbuf, n, true); err != nil {
			t.Error(err)
		}
		if _, err := sb.Recv(th, rbuf, n, true); err != nil {
			t.Error(err)
		}
		got := make([]byte, n)
		if err := p.AS.ReadAt(rbuf, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x31}, n)) {
			t.Error("fallback path corrupted data")
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	if m.Copier().Stats.TasksExecuted != 0 {
		t.Fatal("unattached process used the service")
	}
}

func TestMachineCopyCycleAccounting(t *testing.T) {
	m := newMachine(2)
	p := m.NewProcess("p")
	src := mkbuf(t, p, 8<<10, 1)
	dst := mkbuf(t, p, 8<<10, 0)
	th := m.Spawn(p, "t", func(th *Thread) {
		if err := th.UserCopy(dst, src, 8<<10); err != nil {
			t.Error(err)
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	if m.CopyCycles == 0 {
		t.Fatal("copy cycles not accounted")
	}
	if m.CopyCycles > th.BusyCycles {
		t.Fatalf("copy cycles %d > busy %d", m.CopyCycles, th.BusyCycles)
	}
}

func TestMemBackedBinderBufferVisibility(t *testing.T) {
	m := newMachine(2)
	server := m.NewProcess("server")
	b := m.NewBinder()
	conn := b.Connect(server, 64<<10)
	// Writes through the kernel buffer are visible in the server's
	// read-only view (shared frames).
	if err := m.KernelAS.WriteAt(conn.txnBuf, []byte("binder-shared")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 13)
	if err := server.AS.ReadAt(conn.serverView, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "binder-shared" {
		t.Fatalf("server view = %q", got)
	}
	// The view must be read-only for the server.
	if err := server.AS.WriteAt(conn.serverView, []byte{1}); err == nil {
		t.Fatal("server wrote through read-only binder view")
	}
}
