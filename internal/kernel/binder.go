package kernel

import (
	"encoding/binary"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/libcopier"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// Binder models the Android Binder IPC framework (§5.2): a client's
// transaction data is copied once by the driver into a kernel buffer
// that is premapped read-only into the server's address space; the
// server parses it through the Parcel API and replies the same way.
//
// With Copier, the driver submits the copy as a k-mode Copy Task whose
// descriptor sits at the front of the shared message buffer, and
// Parcel _csyncs each element before reading it — hiding the copy
// behind the driver's wakeup/scheduling work and the server's
// processing (§5.2 "Android Binder IPC framework").
type Binder struct {
	m *Machine
	// buffer area in the kernel address space, premapped into servers.
	bufSize units.Bytes
}

// NewBinder creates the Binder driver for a machine.
func (m *Machine) NewBinder() *Binder { return &Binder{m: m, bufSize: 1 << 20} }

// BinderConn is one client↔server Binder connection with its mapped
// transaction buffers.
type BinderConn struct {
	b      *Binder
	server *Process

	// txnBuf is the kernel transaction buffer; serverView is the same
	// frames mapped read-only in the server's space.
	txnBuf     mem.VA
	serverView mem.VA
	bufLen     units.Bytes

	// Copier state: descriptor bound to the buffer, reused per
	// transaction (low-level API descriptor reuse, §5.1.1).
	desc *core.Descriptor

	txnPending *sim.Signal
	txnLen     units.Bytes
	txnActive  bool

	replyPending *sim.Signal
	replyLen     units.Bytes
	replyBuf     mem.VA // client-provided
	replyActive  bool
}

// Connect maps a transaction buffer between a client and server.
func (b *Binder) Connect(server *Process, bufLen units.Bytes) *BinderConn {
	kas := b.m.KernelAS
	txn := kas.MMap(bufLen, mem.PermRead|mem.PermWrite, "binder-txn")
	if _, err := kas.Populate(txn, bufLen, true); err != nil {
		panic(err)
	}
	frames, err := kas.FramesOf(txn, bufLen)
	if err != nil {
		panic(err)
	}
	view := server.AS.MMapShared(frames, mem.PermRead, "binder-view")
	return &BinderConn{
		b: b, server: server,
		txnBuf: txn, serverView: view, bufLen: bufLen,
		desc:         core.NewDescriptor(view, bufLen, core.DefaultSegSize),
		txnPending:   sim.NewSignal("binder-txn"),
		replyPending: sim.NewSignal("binder-reply"),
	}
}

// Transact sends a transaction of n bytes from the client's data
// buffer and blocks until the server replies into replyBuf; returns
// the reply length. copier selects the Copier-optimized driver path.
func (c *BinderConn) Transact(t *Thread, data mem.VA, n units.Bytes, replyBuf mem.VA, copier bool) units.Bytes {
	var replyLen units.Bytes
	t.Syscall("binder-txn", func() {
		t.Exec(cycles.SocketBookkeeping) // driver bookkeeping
		if a := t.copierFor(copier); a != nil {
			// Driver submits the client→kernel copy asynchronously;
			// the server-side Parcel csyncs before each read. The
			// copy proceeds in parallel with waking and scheduling
			// the server thread.
			c.desc.Reset(c.serverView, n)
			err := a.Lib.AmemcpyOpts(t, c.txnBuf, data, n, libcopier.Opts{
				KMode: true, Desc: c.desc, NoTrack: true,
				SrcAS: t.Proc.AS, DstAS: t.m.KernelAS,
			})
			if err != nil {
				panic(err)
			}
		} else {
			if err := t.KernelCopy(t.m.KernelAS, c.txnBuf, t.Proc.AS, data, n); err != nil {
				panic(err)
			}
			c.desc.Reset(c.serverView, n)
			c.desc.MarkRange(0, n)
		}
		// Wake the server thread.
		c.txnLen = n
		c.txnActive = true
		c.txnPending.Broadcast(t.m.Env)
		// Wait for the reply.
		c.replyBuf = replyBuf
		for !c.replyActive {
			t.Block(c.replyPending)
		}
		c.replyActive = false
		replyLen = c.replyLen
	})
	return replyLen
}

// WaitTransaction blocks the server thread until a transaction
// arrives, returning the server-space view and length.
func (c *BinderConn) WaitTransaction(t *Thread) (mem.VA, units.Bytes) {
	for !c.txnActive {
		t.Block(c.txnPending)
	}
	c.txnActive = false
	return c.serverView, c.txnLen
}

// Reply copies the server's reply into the client's reply buffer and
// wakes it. Replies are small (status words) in the paper's benchmark,
// so they use the plain driver copy.
func (c *BinderConn) Reply(t *Thread, data mem.VA, n units.Bytes) {
	t.Syscall("binder-reply", func() {
		t.Exec(cycles.SocketBookkeeping)
		if err := t.KernelCopy(c.b.m.KernelAS, c.txnBuf, t.Proc.AS, data, n); err != nil {
			panic(err)
		}
		// The client copies the reply out in its own context; model
		// the driver handing the buffer over.
		c.replyLen = n
		c.replyActive = true
		c.replyPending.Broadcast(t.m.Env)
	})
}

// Parcel reads typed data out of a received Binder transaction
// (§5.2): each element is length-prefixed; with Copier the reads
// _csync the element's range against the descriptor at the buffer
// front before touching it.
type Parcel struct {
	conn *BinderConn
	lib  *libcopier.Lib
	base mem.VA
	len  units.Bytes
	off  units.Bytes
	// copier enables the _csync-before-read path.
	copier bool
}

// OpenParcel starts reading a transaction of length n at base.
func (c *BinderConn) OpenParcel(lib *libcopier.Lib, base mem.VA, n units.Bytes, copier bool) *Parcel {
	return &Parcel{conn: c, lib: lib, base: base, len: n, copier: copier}
}

// WriteString appends a length-prefixed string to buf at off,
// returning the new offset (client-side marshalling).
func WriteString(as *mem.AddrSpace, buf mem.VA, off units.Bytes, s []byte) units.Bytes {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(s)))
	if err := as.WriteAt(buf+mem.VA(off), hdr[:]); err != nil {
		panic(err)
	}
	if err := as.WriteAt(buf+mem.VA(off+4), s); err != nil {
		panic(err)
	}
	return off + 4 + units.Bytes(len(s))
}

// ReadString reads the next length-prefixed string, csyncing first on
// the Copier path, and charges per-byte processing cost.
func (p *Parcel) ReadString(t *Thread, out []byte) units.Bytes {
	if p.off+4 > p.len {
		return 0
	}
	if p.copier {
		if err := p.lib.CsyncDesc(t, p.conn.desc, p.off, 4); err != nil {
			panic(err)
		}
	}
	var hdr [4]byte
	as := t.Proc.AS
	if err := as.ReadAt(p.base+mem.VA(p.off), hdr[:]); err != nil {
		panic(err)
	}
	n := units.Bytes(binary.LittleEndian.Uint32(hdr[:]))
	if p.off+4+n > p.len || n > units.Bytes(len(out)) {
		return 0
	}
	if p.copier {
		if err := p.lib.CsyncDesc(t, p.conn.desc, p.off+4, n); err != nil {
			panic(err)
		}
	}
	if err := as.ReadAt(p.base+mem.VA(p.off+4), out[:n]); err != nil {
		panic(err)
	}
	// Copy-out of the element plus light validation.
	t.Exec(cycles.SyncCopyCost(cycles.UnitAVX, n) + cycles.Mul(n, cycles.HashByteNum, cycles.HashByteDen))
	p.off += 4 + n
	return n
}
