package kernel

import (
	"errors"

	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// Pipe is a kernel FIFO whose contents are page references — which is
// what makes splice(2)/vmsplice(2) possible: moving data through a
// pipe transfers page ownership instead of bytes (Table 1: "page
// moving (no copy)", page-aligned only).
type Pipe struct {
	m *Machine
	// segs holds queued data: either owned kernel pages or borrowed
	// (spliced) frames.
	segs   []pipeSeg
	bytes  units.Bytes
	cap    units.Bytes
	ready  *sim.Signal
	space  *sim.Signal
	closed bool
}

type pipeSeg struct {
	frames []mem.Frame
	off    units.Bytes // offset into the first frame
	n      units.Bytes
}

// ErrPipeClosed is returned on I/O to a closed pipe.
var ErrPipeClosed = errors.New("kernel: pipe closed")

// ErrNotAligned is returned by splice operations on unaligned data.
var ErrNotAligned = errors.New("kernel: splice requires page-aligned buffers")

// NewPipe creates a pipe with the default 64KB capacity.
func (m *Machine) NewPipe() *Pipe {
	return &Pipe{m: m, cap: 64 << 10, ready: sim.NewSignal("pipe-r"), space: sim.NewSignal("pipe-w")}
}

// Close closes the pipe.
func (p *Pipe) Close() {
	p.closed = true
	p.ready.Broadcast(p.m.Env)
	p.space.Broadcast(p.m.Env)
}

// Write is the baseline pipe write: copy user bytes into fresh kernel
// pages.
func (p *Pipe) Write(t *Thread, buf mem.VA, n units.Bytes) error {
	var err error
	t.Syscall("pipe-write", func() {
		for p.bytes+n > p.cap {
			if p.closed {
				err = ErrPipeClosed
				return
			}
			t.Block(p.space)
		}
		npages := units.PagesOf(n)
		frames, e := p.m.Phys.AllocFrames(npages)
		if e != nil {
			err = e
			return
		}
		t.Exec(cycles.PerPage(cycles.PageAllocZero, npages))
		// Copy user data into the pipe pages.
		data := p.m.stage(n)
		if err = t.Proc.AS.ReadAt(buf, data); err != nil {
			return
		}
		done := 0
		for _, f := range frames {
			c := copy(p.m.Phys.FrameBytes(f), data[done:])
			done += c
		}
		t.Exec(cycles.SyncCopyCost(cycles.UnitERMS, n))
		p.m.CopyCycles += int64(cycles.SyncCopyCost(cycles.UnitERMS, n))
		p.segs = append(p.segs, pipeSeg{frames: frames, n: n})
		p.bytes += n
		p.ready.Broadcast(t.m.Env)
	})
	return err
}

// VmSplice moves user pages into the pipe without copying: the user's
// page-aligned buffer donates frame references (vmsplice(2) with
// SPLICE_F_GIFT semantics — the user must not modify the pages while
// queued; Table 1 notes this usability hazard).
func (p *Pipe) VmSplice(t *Thread, buf mem.VA, n units.Bytes) error {
	if !buf.PageAligned() || n%mem.PageSize != 0 {
		return ErrNotAligned
	}
	var err error
	t.Syscall("vmsplice", func() {
		for p.bytes+n > p.cap {
			if p.closed {
				err = ErrPipeClosed
				return
			}
			t.Block(p.space)
		}
		as := t.Proc.AS
		if err = t.resolveRange(as, buf, n, false); err != nil {
			return
		}
		frames, e := as.FramesOf(buf, n)
		if e != nil {
			err = e
			return
		}
		for _, f := range frames {
			p.m.Phys.IncRef(f)
		}
		// Page-table reference work only — no data copied.
		t.Exec(cycles.PageRemap + sim.Time(len(frames)-1)*cycles.PageRemapBatch)
		p.segs = append(p.segs, pipeSeg{frames: frames, n: n})
		p.bytes += n
		p.ready.Broadcast(t.m.Env)
	})
	return err
}

// Read copies queued data out into user memory.
func (p *Pipe) Read(t *Thread, buf mem.VA, n units.Bytes) (units.Bytes, error) {
	var got units.Bytes
	var err error
	t.Syscall("pipe-read", func() {
		for len(p.segs) == 0 {
			if p.closed {
				return
			}
			t.Block(p.ready)
		}
		seg := p.segs[0]
		got = seg.n
		if got > n {
			got = n
		}
		// Gather out of the segment's frames.
		data := p.m.stage(got)
		done := 0
		off := seg.off
		for _, f := range seg.frames {
			if units.Bytes(done) >= got {
				break
			}
			c := copy(data[done:], p.m.Phys.FrameBytes(f)[off:])
			done += c
			off = 0
		}
		if err = t.Proc.AS.WriteAt(buf, data); err != nil {
			return
		}
		t.Exec(cycles.SyncCopyCost(cycles.UnitERMS, got))
		p.m.CopyCycles += int64(cycles.SyncCopyCost(cycles.UnitERMS, got))
		p.consume(seg.n)
		p.space.Broadcast(t.m.Env)
	})
	return got, err
}

// SpliceToSocket moves a whole queued segment into a socket without
// copying: the skb borrows the pipe's frames (splice(2) to a socket).
func (p *Pipe) SpliceToSocket(t *Thread, s *Socket) (units.Bytes, error) {
	var got units.Bytes
	var err error
	t.Syscall("splice", func() {
		for len(p.segs) == 0 {
			if p.closed {
				err = ErrPipeClosed
				return
			}
			t.Block(p.ready)
		}
		seg := p.segs[0]
		got = seg.n
		t.Exec(cycles.SocketBookkeeping + cycles.PageRemap)
		// Build an skb view over the pipe frames: map them into the
		// kernel address space (reference transfer, no copy).
		va := p.m.KernelAS.MMapShared(seg.frames, mem.PermRead|mem.PermWrite, "skb-splice")
		frames := seg.frames
		kas := p.m.KernelAS
		pm := p.m.Phys
		skb := &SkBuf{VA: va, Cap: got, Len: got, release: func() {
			_ = kas.MUnmap(va)
			for _, f := range frames {
				pm.DecRef(f)
			}
		}}
		// The pipe's frame references transfer to the skb; release
		// drops them together with the kernel mapping's.
		p.segs = p.segs[1:]
		p.bytes -= seg.n
		t.Exec(cycles.SoftIRQPacket + cycles.NICDoorbell)
		s.deliver(skb)
		p.space.Broadcast(t.m.Env)
	})
	return got, err
}

// consume drops n bytes from the head segment (whole-segment reads
// only in this model).
func (p *Pipe) consume(n units.Bytes) {
	seg := p.segs[0]
	for _, f := range seg.frames {
		p.m.Phys.DecRef(f)
	}
	p.segs = p.segs[1:]
	p.bytes -= seg.n
}
