package kernel

import (
	"errors"
	"fmt"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/libcopier"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// Network is the machine's loopback network: socket pairs connected
// through simulated NIC queues with a fixed latency. Message
// boundaries are preserved (the evaluation workloads are
// message-oriented echo/RPC patterns).
type Network struct {
	m *Machine
	// Latency is NIC-to-NIC delivery time.
	Latency sim.Time
	pool    *skbPool
}

// Net returns the machine's network, creating it on first use.
func (m *Machine) Net() *Network {
	if m.net == nil {
		m.net = &Network{m: m, Latency: 2 * cycles.CyclesPerMicrosecond, pool: newSkbPool(m)}
	}
	return m.net
}

// SkBuf is one kernel socket buffer holding a single message.
type SkBuf struct {
	VA  mem.VA // in the kernel address space
	Cap units.Bytes
	Len units.Bytes
}

// skbPool recycles kernel buffers by size class, like the slab
// allocator — buffer reuse is what gives the ATCache its hit rate on
// the kernel side (§4.3).
type skbPool struct {
	m    *Machine
	free map[units.Bytes][]*SkBuf // by size class (power of two)
}

func newSkbPool(m *Machine) *skbPool {
	return &skbPool{m: m, free: make(map[units.Bytes][]*SkBuf)}
}

func classOf(n units.Bytes) units.Bytes {
	c := units.Bytes(2048)
	for c < n {
		c <<= 1
	}
	return c
}

// alloc returns a kernel buffer of capacity >= n.
func (p *skbPool) alloc(t *Thread, n units.Bytes) *SkBuf {
	c := classOf(n)
	if fl := p.free[c]; len(fl) > 0 {
		skb := fl[len(fl)-1]
		p.free[c] = fl[:len(fl)-1]
		skb.Len = n
		t.Exec(200) // slab fast path
		return skb
	}
	va := p.m.KernelAS.MMap(c, mem.PermRead|mem.PermWrite, "skb")
	if _, err := p.m.KernelAS.Populate(va, c, true); err != nil {
		panic(err)
	}
	t.Exec(cycles.PerPage(cycles.PageAllocZero, units.PagesOf(c)))
	return &SkBuf{VA: va, Cap: c, Len: n}
}

// put returns a buffer to the pool.
func (p *skbPool) put(skb *SkBuf) {
	p.free[skb.Cap] = append(p.free[skb.Cap], skb)
}

// Socket is one endpoint of a connected loopback socket pair.
type Socket struct {
	net   *Network
	name  string
	peer  *Socket
	recvQ []*SkBuf
	ready *sim.Signal
	// notify, when set, also broadcasts on data arrival — an
	// epoll-style shared wakeup for servers multiplexing many
	// sockets.
	notify *sim.Signal
	// Closed sockets reject I/O.
	closed bool
}

// SetReadyNotify registers an additional signal broadcast whenever
// data arrives (epoll-style multiplexing).
func (s *Socket) SetReadyNotify(sig *sim.Signal) { s.notify = sig }

// WaitAnyReadable blocks t until one of the sockets has pending data
// (all must share a notify signal installed with SetReadyNotify),
// returning a readable socket.
func WaitAnyReadable(t *Thread, sig *sim.Signal, socks []*Socket) *Socket {
	for {
		for _, s := range socks {
			if len(s.recvQ) > 0 {
				return s
			}
		}
		allClosed := true
		for _, s := range socks {
			if !s.closed {
				allClosed = false
				break
			}
		}
		if allClosed {
			return nil
		}
		t.Block(sig)
	}
}

// ErrClosed is returned on I/O to a closed socket.
var ErrClosed = errors.New("kernel: socket closed")

// SocketPair creates two connected sockets.
func (n *Network) SocketPair(a, b string) (*Socket, *Socket) {
	sa := &Socket{net: n, name: a, ready: sim.NewSignal("sock:" + a)}
	sb := &Socket{net: n, name: b, ready: sim.NewSignal("sock:" + b)}
	sa.peer, sb.peer = sb, sa
	return sa, sb
}

// Close closes the socket.
func (s *Socket) Close() { s.closed = true; s.ready.Broadcast(s.net.m.Env) }

// Pending reports queued messages.
func (s *Socket) Pending() int { return len(s.recvQ) }

// deliver schedules NIC delivery of an skb to the peer.
func (s *Socket) deliver(skb *SkBuf) {
	env := s.net.m.Env
	peer := s.peer
	env.Schedule(s.net.Latency, func() {
		peer.recvQ = append(peer.recvQ, skb)
		peer.ready.Broadcast(env)
		if peer.notify != nil {
			peer.notify.Broadcast(env)
		}
	})
}

// CopierFallbackMin is the copy size below which the Copier
// integrations fall back to the synchronous path — §4.6: async only
// pays off for kernel copies >=0.3KB, and "for the unsuitable cases,
// developers can fall back to prior sync copy".
const CopierFallbackMin = 384

// Send is send(2): trap, copy the user buffer into a kernel buffer,
// protocol processing, NIC doorbell (SendSkb). copier selects the
// Copier-Linux data path (§5.2); a process without an attachment, or
// a message shorter than CopierFallbackMin, copies synchronously.
func (s *Socket) Send(t *Thread, buf mem.VA, n units.Bytes, copier bool) error {
	if s.closed {
		return ErrClosed
	}
	a := t.copierFor(copier)
	if n < CopierFallbackMin {
		a = nil
	}
	var err error
	t.Syscall("send", func() {
		t.Exec(cycles.SocketBookkeeping)
		err = s.SendSkb(t, a, t.Proc.AS, buf, n)
	})
	return err
}

// SendSkb is the send data path from any kernel context (send(2),
// sendfile, Userspace Bypass, io_uring's kthread): allocate a kernel
// buffer, copy n bytes from srcAS at buf into it, and hand it to the
// NIC. A nil attachment copies with ERMS before the protocol work.
// Otherwise the copy is a k-mode Copy Task (§5.2): TCP/IP processing
// needs only packet metadata (checksum offloaded to the NIC), and the
// driver csyncs just before ringing the TX doorbell, so the Copy-Use
// window is the protocol processing time. A failed copy frees the
// buffer.
func (s *Socket) SendSkb(t *Thread, a *CopierAttachment, srcAS *mem.AddrSpace, buf mem.VA, n units.Bytes) error {
	skb := s.net.pool.alloc(t, n)
	var err error
	if a == nil {
		if err = t.KernelCopy(t.m.KernelAS, skb.VA, srcAS, buf, n); err == nil {
			t.Exec(cycles.SoftIRQPacket + cycles.NICDoorbell)
		}
	} else {
		desc := core.NewDescriptor(skb.VA, n, core.DefaultSegSize)
		err = a.Lib.AmemcpyOpts(t, skb.VA, buf, n, libcopier.Opts{
			KMode: true, Desc: desc, NoTrack: true,
			SrcAS: srcAS, DstAS: t.m.KernelAS,
		})
		if err == nil {
			t.Exec(cycles.SoftIRQPacket)
			if err = a.Lib.CsyncDesc(t, desc, 0, n); err == nil {
				t.Exec(cycles.NICDoorbell)
			}
		}
	}
	if err != nil {
		s.net.pool.put(skb)
		return err
	}
	s.deliver(skb)
	return nil
}

// ErrZeroCopyUnsupported marks buffers zero-copy send cannot take
// (alignment, size).
var ErrZeroCopyUnsupported = errors.New("kernel: zero-copy send requires page-aligned buffers")

// ZeroCopyCompletion lets the caller wait for buffer ownership to
// return (MSG_ZEROCOPY's error-queue notification).
type ZeroCopyCompletion struct {
	done bool
	sig  *sim.Signal
}

// Wait blocks until the kernel releases the buffer, charging the
// notification-reap syscall (§2.2: "additional syscalls to check the
// buffer's status").
func (z *ZeroCopyCompletion) Wait(t *Thread) {
	t.Exec(cycles.SyscallTrap + cycles.SyscallReturn)
	if !z.done {
		t.Block(z.sig)
	}
}

// SendZeroCopy models MSG_ZEROCOPY (§2.2, Fig. 10): user pages are
// pinned and shared with the NIC, costing per-page remap + TLB work
// but no data copy; the buffer stays owned by the kernel until
// transmission completes.
func (s *Socket) SendZeroCopy(t *Thread, buf mem.VA, n units.Bytes) (*ZeroCopyCompletion, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if !buf.PageAligned() {
		return nil, ErrZeroCopyUnsupported
	}
	z := &ZeroCopyCompletion{sig: sim.NewSignal("zc")}
	var err error
	t.Syscall("send-zc", func() {
		t.Exec(cycles.SocketBookkeeping)
		as := t.Proc.AS
		if err = t.resolveRange(as, buf, n, false); err != nil {
			return
		}
		if err = as.Pin(buf, n); err != nil {
			return
		}
		// Batched page-table work to share the pages with the device,
		// plus one deferred shootdown round (§6.2.1: "TLB flush
		// costs"). Calibrated to MSG_ZEROCOPY's documented >=10KB
		// profitability and Fig. 10's >=32KB crossover against Copier.
		t.Exec(cycles.PerPageAfterFirst(cycles.PageRemap, cycles.PageRemapBatch, units.PagesOf(n)) + cycles.TLBShootdown)
		t.Exec(cycles.SoftIRQPacket + cycles.NICDoorbell)
		// The NIC reads user memory at transmit time.
		skb := s.net.pool.alloc(t, n)
		data := t.m.stage(n)
		if err = as.ReadAt(buf, data); err != nil {
			as.Unpin(buf, n)
			return
		}
		if err = t.m.KernelAS.WriteAt(skb.VA, data); err != nil {
			as.Unpin(buf, n)
			return
		}
		env := t.m.Env
		s.deliver(skb)
		// Buffer ownership returns once the NIC has read the pages
		// (line-rate DMA), well before end-to-end delivery.
		env.Schedule(cycles.AtRate(n, cycles.NICDMABytesPerCycle)+cycles.NICReclaimFixed, func() {
			as.Unpin(buf, n)
			z.done = true
			z.sig.Broadcast(env)
		})
	})
	if err != nil {
		return nil, err
	}
	return z, nil
}

// Recv is recv(2): block for a message, then copy it to user memory
// (RecvSkb). copier selects the Copier-Linux data path (§5.2), which
// returns once the copy is submitted; the app csyncs before touching
// the data, overlapping the copy with its post-recv processing. A
// process without an attachment, or a queued message shorter than
// CopierFallbackMin, copies synchronously.
func (s *Socket) Recv(t *Thread, buf mem.VA, n units.Bytes, copier bool) (units.Bytes, error) {
	a := t.copierFor(copier)
	if next := s.PeekLen(); next > 0 && next < CopierFallbackMin {
		a = nil
	}
	var got units.Bytes
	var err error
	t.Syscall("recv", func() {
		t.Exec(cycles.SocketBookkeeping)
		got, err = s.RecvSkb(t, a, t.Proc.AS, buf, n, false)
	})
	return got, err
}

// RecvSkb is the receive data path from any kernel context (recv(2),
// Userspace Bypass, io_uring's kthread, a proxy's lazy recv): wait for
// the next message and copy up to n bytes of it to dstAS at buf. A nil
// attachment copies with ERMS and frees the buffer. Otherwise the copy
// is a k-mode Copy Task, lazy if asked (§4.4), with a KFUNC that frees
// the buffer; the caller csyncs before use. A failed copy frees the
// buffer and returns (0, err).
func (s *Socket) RecvSkb(t *Thread, a *CopierAttachment, dstAS *mem.AddrSpace, buf mem.VA, n units.Bytes, lazy bool) (units.Bytes, error) {
	skb := s.waitData(t)
	if skb == nil {
		return 0, ErrClosed
	}
	got := min(skb.Len, n)
	pool := s.net.pool
	var err error
	if a == nil {
		if err = t.KernelCopy(dstAS, buf, t.m.KernelAS, skb.VA, got); err == nil {
			t.Exec(200) // skb free fast path
			pool.put(skb)
		}
	} else {
		err = a.Lib.AmemcpyOpts(t, buf, skb.VA, got, libcopier.Opts{
			KMode: true, Lazy: lazy,
			SrcAS: t.m.KernelAS, DstAS: dstAS,
			Handler: &core.Handler{Kernel: true, Cost: 200, Fn: func() { pool.put(skb) }},
		})
	}
	if err != nil {
		pool.put(skb)
		return 0, err
	}
	return got, nil
}

// waitData blocks until a message is queued (or the socket closes).
func (s *Socket) waitData(t *Thread) *SkBuf {
	for len(s.recvQ) == 0 {
		if s.closed {
			return nil
		}
		t.Block(s.ready)
	}
	skb := s.recvQ[0]
	s.recvQ = s.recvQ[1:]
	return skb
}

// PeekLen returns the size of the next queued message without
// consuming it (0 when empty) — proxies use it to size buffers.
func (s *Socket) PeekLen() units.Bytes {
	if len(s.recvQ) == 0 {
		return 0
	}
	return s.recvQ[0].Len
}

func (s *Socket) String() string { return fmt.Sprintf("socket(%s)", s.name) }

// The helpers below expose the socket-layer building blocks to zIO's
// gather send, which fills one buffer from several user ranges.

// AllocSkb allocates a kernel buffer of capacity >= n.
func (n *Network) AllocSkb(t *Thread, size units.Bytes) *SkBuf { return n.pool.alloc(t, size) }

// FreeSkb returns a buffer to the pool.
func (n *Network) FreeSkb(skb *SkBuf) { n.pool.put(skb) }

// DeliverSkb schedules NIC delivery of a filled buffer to the peer.
func (s *Socket) DeliverSkb(skb *SkBuf) { s.deliver(skb) }
