package kernel

import (
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/hw"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// CoW fault handling (§5.2 "Copy-On-Write fault handling").
//
// The baseline handler allocates pages and copies them with the
// kernel's ERMS memcpy, blocking the faulting thread for the whole
// copy. Copier-Linux instead "divides the work between CoW handler
// and Copier": the handler submits the bulk of the copy to the
// service as a physically-addressed kernel task, copies its own share
// in parallel, and csyncs before the page-table update becomes
// visible.

// CoWResult reports one handled fault for experiment accounting.
type CoWResult struct {
	// Blocked is how long the faulting thread was stalled.
	Blocked sim.Time
	// Copied is bytes physically copied (0 on the sole-owner path).
	Copied units.Bytes
}

// cowAllocCost charges page allocation for a CoW region: one buddy
// allocation for a 2 MB THP region, per-page otherwise. No zeroing —
// the copy overwrites everything.
func cowAllocCost(length units.Bytes) sim.Time {
	if length >= 2<<20 {
		return cycles.PerChunk(cycles.HugePageAlloc, length, 2<<20)
	}
	return cycles.PerPage(cycles.PageAllocCoW, units.PagesOf(length))
}

// cowFlushCost charges the TLB invalidation: a THP region is one PMD
// entry; base pages flush per page.
func cowFlushCost(length units.Bytes) sim.Time {
	if length >= 2<<20 {
		return cycles.PerChunk(cycles.TLBFlushPage, length, 2<<20)
	}
	return cycles.PerPage(cycles.TLBFlushPage, units.PagesOf(length))
}

// breakPages breaks the CoW mappings of a region, returning merged
// physically-contiguous (old, new) copy runs. Old frames keep a
// reference the caller must drop after copying.
func (t *Thread) breakPages(as *mem.AddrSpace, va mem.VA, length units.Bytes) (src, dst []hw.FrameRange, err error) {
	var lastOld, lastNew mem.Frame = -2, -2
	for off := units.Bytes(0); off < length; off += mem.PageSize {
		old, nf, err := as.PrepareCoWBreak(va + mem.VA(off))
		if err != nil {
			return nil, nil, err
		}
		if old == mem.NoFrame {
			continue // sole owner fast path
		}
		if old == lastOld+1 && nf == lastNew+1 && len(src) > 0 {
			src[len(src)-1].Len += mem.PageSize
			dst[len(dst)-1].Len += mem.PageSize
		} else {
			src = append(src, hw.FrameRange{Frame: old, Len: mem.PageSize})
			dst = append(dst, hw.FrameRange{Frame: nf, Len: mem.PageSize})
		}
		lastOld, lastNew = old, nf
	}
	return src, dst, nil
}

func (t *Thread) releaseOld(src []hw.FrameRange) {
	for _, r := range src {
		for f := r.Frame; f < r.Frame+mem.Frame(r.Len/mem.PageSize); f++ {
			t.m.Phys.DecRef(f)
		}
	}
}

// HandleCoWFault resolves a write fault on the CoW region starting at
// va spanning length bytes (PageSize for base pages, 2MB for
// transparent huge pages): break the mappings, copy the shared pages
// (copyCoW), drop the old frames and flush the TLB. copier selects the
// split-work Copier path; a process without an attachment takes the
// baseline ERMS copy.
func (t *Thread) HandleCoWFault(as *mem.AddrSpace, va mem.VA, length units.Bytes, copier bool) (CoWResult, error) {
	a := t.copierFor(copier)
	start := t.Now()
	t.Exec(cycles.PageFault)
	src, dst, err := t.breakPages(as, va, length)
	if err != nil {
		return CoWResult{}, err
	}
	copied := hw.TotalLen(src)
	if copied > 0 {
		t.Exec(cowAllocCost(copied))
		if err := t.copyCoW(a, dst, src, copied); err != nil {
			return CoWResult{}, err
		}
		t.releaseOld(src)
	}
	t.Exec(cowFlushCost(length))
	return CoWResult{Blocked: t.Now() - start, Copied: copied}, nil
}

// copyCoW copies the broken pages' contents, copied bytes in all. A
// nil attachment copies everything on the handler's ERMS. Otherwise
// the service copies the bulk on AVX+DMA as one physically-addressed
// kernel task while the handler copies its own share on ERMS, and the
// handler csyncs before the page-table update becomes visible
// (guideline 4, §5.1).
func (t *Thread) copyCoW(a *CopierAttachment, dst, src []hw.FrameRange, copied units.Bytes) error {
	if a == nil {
		t.ermsScatter(dst, src, copied)
		return nil
	}
	// Split by unit bandwidth: the handler's ERMS sustains ~7 B/c,
	// the service's AVX+DMA pair ~16 B/c, so the handler keeps ~30%.
	localBytes := copied * 3 / 10
	localBytes -= localBytes % mem.PageSize
	srcLocal, srcOff := takeBytes(src, localBytes)
	dstLocal, dstOff := takeBytes(dst, localBytes)

	// Offload the remainder as one physically-addressed kernel task.
	var desc *core.Descriptor
	if copied > localBytes {
		desc = core.NewDescriptor(0, copied-localBytes, core.DefaultSegSize)
		task := &core.Task{
			Len:     copied - localBytes,
			PhysSrc: srcOff, PhysDst: dstOff,
			Desc: desc, SegSize: core.DefaultSegSize,
		}
		t.Exec(cycles.SubmitTask)
		if !a.Client.SubmitCopy(task, true) {
			// Queue full: fall back to copying everything locally.
			t.ermsScatter(dstOff, srcOff, copied-localBytes)
			desc = nil
		}
	}

	// Handler copies its share in parallel with the service.
	if localBytes > 0 {
		t.ermsScatter(dstLocal, srcLocal, localBytes)
	}

	// Sync before the new mapping is visible to other threads.
	if desc != nil {
		return a.Lib.CsyncDesc(t, desc, 0, copied-localBytes)
	}
	return nil
}

// ermsScatter copies n bytes between frame lists on the thread's ERMS.
func (t *Thread) ermsScatter(dst, src []hw.FrameRange, n units.Bytes) {
	hw.CopyScatter(t.m.Phys, dst, src)
	t.Exec(cycles.SyncCopyCost(cycles.UnitERMS, n))
}

// takeBytes splits a scatter list at n bytes, returning the head and
// tail lists.
func takeBytes(rs []hw.FrameRange, n units.Bytes) (head, tail []hw.FrameRange) {
	for _, r := range rs {
		if n <= 0 {
			tail = append(tail, r)
			continue
		}
		if r.Len <= n {
			head = append(head, r)
			n -= r.Len
			continue
		}
		head = append(head, hw.FrameRange{Frame: r.Frame, Off: r.Off, Len: n})
		abs := r.Off + n
		tail = append(tail, hw.FrameRange{
			Frame: r.Frame + mem.Frame(abs/mem.PageSize),
			Off:   abs % mem.PageSize,
			Len:   r.Len - n,
		})
		n = 0
	}
	return head, tail
}
