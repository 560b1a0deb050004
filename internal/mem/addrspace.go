package mem

import (
	"errors"
	"fmt"
	"sort"

	"copier/internal/units"
)

// VA is a virtual address in some simulated address space.
type VA uint64

// Page returns the virtual page number of the address.
func (v VA) Page() uint64 { return uint64(v) >> PageShift }

// Offset returns the offset within the page.
func (v VA) Offset() int { return int(uint64(v) & (PageSize - 1)) }

// PageAligned reports whether the address is page-aligned (zero-copy
// remapping methods require this; Copier does not — Table 1).
func (v VA) PageAligned() bool { return v.Offset() == 0 }

// Perm is a VMA permission mask.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
)

// Access errors.
var (
	ErrBadAddress = errors.New("mem: address not mapped by any VMA")
	ErrPermission = errors.New("mem: permission denied")
)

// FaultKind classifies a page fault.
type FaultKind int

const (
	// FaultNone: the access hit a present, sufficiently-permissioned page.
	FaultNone FaultKind = iota
	// FaultDemandZero: first touch of an anonymous page — allocate a
	// zero frame.
	FaultDemandZero
	// FaultCoW: write to a copy-on-write page — allocate and copy.
	FaultCoW
	// FaultBadAddress: access outside any VMA (SIGSEGV).
	FaultBadAddress
	// FaultPermission: access violating VMA permissions (SIGSEGV).
	FaultPermission
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDemandZero:
		return "demand-zero"
	case FaultCoW:
		return "cow"
	case FaultBadAddress:
		return "bad-address"
	case FaultPermission:
		return "permission"
	}
	return "fault?"
}

// PTE is a page-table entry.
type PTE struct {
	Frame    Frame
	Present  bool
	Writable bool
	CoW      bool
	Pinned   int // pin count; pinned pages are never remapped
}

// VMA is a virtual memory area.
type VMA struct {
	Start  VA // inclusive, page aligned
	End    VA // exclusive, page aligned
	Perm   Perm
	Name   string
	Shared bool // shared mappings never CoW on fork
}

// Len returns the VMA length in bytes.
func (v *VMA) Len() units.Bytes { return units.Bytes(v.End - v.Start) }

func (v *VMA) contains(a VA) bool { return a >= v.Start && a < v.End }

// AddrSpace is one process's virtual address space.
type AddrSpace struct {
	pm    *PhysMem
	vmas  []*VMA // sorted by Start
	pages map[uint64]*PTE
	next  VA // bump pointer for MMap placement
	// onMappingChange listeners are notified with the changed virtual
	// page number; Copier's ATCache registers here (§4.3: "The memory
	// subsystem will notify ATCache to invalidate entries when the
	// mappings change").
	onMappingChange []func(vpn uint64)
	// Faults counts faults taken by kind, for experiment reporting.
	Faults map[FaultKind]int
	// home is the preferred NUMA node for demand-paged frames
	// (first-touch placement); -1 means no preference (flat
	// allocation, the historical behavior).
	home int
}

// mmapBase is where MMap starts placing VMAs.
const mmapBase VA = 0x0000_7000_0000_0000

// NewAddrSpace creates an empty address space over the given physical
// memory.
func NewAddrSpace(pm *PhysMem) *AddrSpace {
	return &AddrSpace{
		pm:     pm,
		pages:  make(map[uint64]*PTE),
		next:   mmapBase,
		Faults: make(map[FaultKind]int),
		home:   -1,
	}
}

// SetHomeNode sets the preferred NUMA node for frames this address
// space demand-allocates from now on (-1 clears the preference).
// Existing mappings are not migrated.
func (as *AddrSpace) SetHomeNode(node int) { as.home = node }

// HomeNode returns the preferred NUMA node, or -1 if none.
func (as *AddrSpace) HomeNode() int { return as.home }

// allocFrame allocates one frame honoring the home-node preference.
func (as *AddrSpace) allocFrame() (Frame, error) {
	if as.home >= 0 {
		return as.pm.AllocFrameOn(as.home)
	}
	return as.pm.AllocFrame()
}

// OnMappingChange registers a callback invoked whenever the physical
// mapping of a virtual page changes (unmap, CoW break, remap).
func (as *AddrSpace) OnMappingChange(fn func(vpn uint64)) {
	as.onMappingChange = append(as.onMappingChange, fn)
}

func (as *AddrSpace) notifyChange(vpn uint64) {
	for _, fn := range as.onMappingChange {
		fn(vpn)
	}
}

// MMap reserves an anonymous demand-paged VMA of at least length bytes
// and returns its start address. No frames are allocated until the
// pages are touched.
func (as *AddrSpace) MMap(length units.Bytes, perm Perm, name string) VA {
	npages := units.PagesOf(length)
	start := as.next
	end := start + VA(npages.Bytes())
	// Leave a guard page between VMAs so off-by-one accesses fault.
	as.next = end + PageSize
	vma := &VMA{Start: start, End: end, Perm: perm, Name: name}
	as.insertVMA(vma)
	return start
}

// MMapShared maps the given frames (e.g. another process's buffer or a
// kernel buffer) into this address space and returns the start
// address. The frames' reference counts are incremented.
func (as *AddrSpace) MMapShared(frames []Frame, perm Perm, name string) VA {
	start := as.next
	end := start + VA(int64(len(frames))<<PageShift)
	as.next = end + PageSize
	vma := &VMA{Start: start, End: end, Perm: perm, Name: name, Shared: true}
	as.insertVMA(vma)
	for i, f := range frames {
		as.pm.IncRef(f)
		vpn := start.Page() + uint64(i)
		as.pages[vpn] = &PTE{Frame: f, Present: true, Writable: perm&PermWrite != 0}
	}
	return start
}

func (as *AddrSpace) insertVMA(v *VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

// MUnmap removes the VMA starting at start, dropping frame references
// and notifying mapping-change listeners. Like ReleaseAll, it refuses
// (and releases nothing) while any of the VMA's pages is pinned: the
// freed frame would go to the next allocation while the pin holder
// still copies into it.
func (as *AddrSpace) MUnmap(start VA) error {
	for i, v := range as.vmas {
		if v.Start == start {
			for vpn := v.Start.Page(); vpn < v.End.Page(); vpn++ {
				if pte, ok := as.pages[vpn]; ok && pte.Pinned > 0 {
					return fmt.Errorf("mem: munmap of pinned page %#x", vpn<<PageShift)
				}
			}
			for vpn := v.Start.Page(); vpn < v.End.Page(); vpn++ {
				if pte, ok := as.pages[vpn]; ok && pte.Present {
					as.pm.DecRef(pte.Frame)
					delete(as.pages, vpn)
					as.notifyChange(vpn)
				}
			}
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("mem: munmap: no VMA at %#x: %w", uint64(start), ErrBadAddress)
}

// FindVMA returns the VMA containing a, or nil.
func (as *AddrSpace) FindVMA(a VA) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > a })
	if i < len(as.vmas) && as.vmas[i].contains(a) {
		return as.vmas[i]
	}
	return nil
}

// PTEOf returns the PTE of the page containing a, or nil if the page
// was never populated.
func (as *AddrSpace) PTEOf(a VA) *PTE { return as.pages[a.Page()] }

// Classify reports what a (read or write) access to address a would do
// without performing it: FaultNone if it would hit, or the fault kind.
func (as *AddrSpace) Classify(a VA, write bool) FaultKind {
	vma := as.FindVMA(a)
	if vma == nil {
		return FaultBadAddress
	}
	need := PermRead
	if write {
		need = PermWrite
	}
	if vma.Perm&need == 0 {
		return FaultPermission
	}
	pte, ok := as.pages[a.Page()]
	if !ok || !pte.Present {
		return FaultDemandZero
	}
	if write && pte.CoW {
		return FaultCoW
	}
	return FaultNone
}

// HandleFault resolves the fault that Classify reported for address a,
// mutating the page tables. It returns the kind it resolved (or the
// unresolvable kind for bad accesses) and the number of bytes the
// handler had to copy (CoW page contents), so callers can charge copy
// costs. HandleFault performs no cycle accounting itself.
func (as *AddrSpace) HandleFault(a VA, write bool) (FaultKind, units.Bytes, error) {
	kind := as.Classify(a, write)
	as.Faults[kind]++
	switch kind {
	case FaultNone:
		return kind, 0, nil
	case FaultBadAddress:
		return kind, 0, fmt.Errorf("mem: %#x: %w", uint64(a), ErrBadAddress)
	case FaultPermission:
		return kind, 0, fmt.Errorf("mem: %#x: %w", uint64(a), ErrPermission)
	case FaultDemandZero:
		f, err := as.allocFrame()
		if err != nil {
			return kind, 0, err
		}
		vma := as.FindVMA(a)
		as.pages[a.Page()] = &PTE{Frame: f, Present: true, Writable: vma.Perm&PermWrite != 0}
		return kind, 0, nil
	case FaultCoW:
		pte := as.pages[a.Page()]
		if pte.Pinned > 0 {
			return kind, 0, fmt.Errorf("mem: CoW break of pinned page %#x", uint64(a))
		}
		if as.pm.RefCount(pte.Frame) == 1 {
			// Sole owner: just restore write permission.
			pte.CoW = false
			pte.Writable = true
			return kind, 0, nil
		}
		nf, err := as.allocFrame()
		if err != nil {
			return kind, 0, err
		}
		copy(as.pm.FrameBytes(nf), as.pm.FrameBytes(pte.Frame))
		as.pm.DecRef(pte.Frame)
		pte.Frame = nf
		pte.CoW = false
		pte.Writable = true
		as.notifyChange(a.Page())
		return kind, PageSize, nil
	}
	panic("unreachable")
}

// Populate faults in all pages of [a, a+length) for the given access
// mode, as an eager mmap would. It returns the number of faults taken.
func (as *AddrSpace) Populate(a VA, length units.Bytes, write bool) (int, error) {
	n := 0
	for va := a & ^VA(PageSize-1); va < a+VA(length); va += PageSize {
		kind, _, err := as.HandleFault(va, write)
		if err != nil {
			return n, err
		}
		if kind != FaultNone {
			n++
		}
	}
	return n, nil
}

// Translate returns the frame and in-page offset of a present page, or
// an error if the page is not present (callers should fault first).
func (as *AddrSpace) Translate(a VA) (Frame, int, error) {
	pte, ok := as.pages[a.Page()]
	if !ok || !pte.Present {
		return NoFrame, 0, fmt.Errorf("mem: %#x not present: %w", uint64(a), ErrBadAddress)
	}
	return pte.Frame, a.Offset(), nil
}

// ContigRun reports the length in bytes (up to max) of the physically
// contiguous run starting at a. Pages must be present; the run stops at
// the first absent or non-adjacent page. Used by the dispatcher to
// split Copy Tasks into DMA-eligible subtasks (§4.3).
func (as *AddrSpace) ContigRun(a VA, max units.Bytes) units.Bytes {
	pte, ok := as.pages[a.Page()]
	if !ok || !pte.Present {
		return 0
	}
	run := units.Bytes(PageSize - a.Offset())
	prev := pte.Frame
	vpn := a.Page() + 1
	for run < max {
		pte, ok := as.pages[vpn]
		if !ok || !pte.Present || !Contiguous(prev, pte.Frame) {
			break
		}
		run += PageSize
		prev = pte.Frame
		vpn++
	}
	if run > max {
		run = max
	}
	return run
}

// Pin increments the pin count of every page in [a, a+length),
// guaranteeing the mapping is stable for the duration (proactive fault
// handling locks mappings until the copy completes, §4.5.4). All pages
// must be present. On error no pins are held (the already-pinned
// prefix is rolled back in place), so the obligation to Unpin exists
// exactly when Pin returned nil — which is how lifelint checks it:
//
//copier:lifecycle pair pin open=AddrSpace.Pin close=AddrSpace.Unpin
func (as *AddrSpace) Pin(a VA, length units.Bytes) error {
	start := a & ^VA(PageSize-1)
	for va := start; va < a+VA(length); va += PageSize {
		pte, ok := as.pages[va.Page()]
		if !ok || !pte.Present {
			// Roll back by re-walking the pages already pinned: the
			// walk is cheap and keeps the success path allocation-free
			// (the service pins page-by-page on every fault).
			for u := start; u < va; u += PageSize {
				as.pages[u.Page()].Pinned--
			}
			return fmt.Errorf("mem: pin of non-present page %#x: %w", uint64(va), ErrBadAddress)
		}
		pte.Pinned++
	}
	return nil
}

// Unpin decrements the pin counts set by Pin.
func (as *AddrSpace) Unpin(a VA, length units.Bytes) {
	for va := a & ^VA(PageSize-1); va < a+VA(length); va += PageSize {
		pte, ok := as.pages[va.Page()]
		if !ok || pte.Pinned <= 0 {
			panic(fmt.Sprintf("mem: unpin of unpinned page %#x", uint64(va)))
		}
		pte.Pinned--
	}
}

// ReplacePage remaps the page containing a to the given frame (page
// remapping as used by zero-copy baselines). The old frame, if any, is
// dereferenced; the new frame gains a reference. Fails on pinned pages.
func (as *AddrSpace) ReplacePage(a VA, f Frame) error {
	vma := as.FindVMA(a)
	if vma == nil {
		return fmt.Errorf("mem: remap outside VMA %#x: %w", uint64(a), ErrBadAddress)
	}
	vpn := a.Page()
	if pte, ok := as.pages[vpn]; ok && pte.Present {
		if pte.Pinned > 0 {
			return fmt.Errorf("mem: remap of pinned page %#x", uint64(a))
		}
		as.pm.DecRef(pte.Frame)
	}
	as.pm.IncRef(f)
	as.pages[vpn] = &PTE{Frame: f, Present: true, Writable: vma.Perm&PermWrite != 0}
	as.notifyChange(vpn)
	return nil
}

// PrepareCoWBreak allocates a new frame for the CoW page containing a
// and installs it writable, WITHOUT copying the old contents: the
// caller performs (and accounts for) the copy from old to new, then
// releases old with DecRef. The sole-owner fast path returns
// (NoFrame, NoFrame, nil) after restoring write permission — no copy
// is needed. Copier-Linux's CoW handler uses this to split the copy
// between the fault handler and the Copier service (§5.2).
func (as *AddrSpace) PrepareCoWBreak(a VA) (old, new Frame, err error) {
	pte, ok := as.pages[a.Page()]
	if !ok || !pte.Present || !pte.CoW {
		return NoFrame, NoFrame, fmt.Errorf("mem: %#x is not a CoW page: %w", uint64(a), ErrBadAddress)
	}
	if pte.Pinned > 0 {
		return NoFrame, NoFrame, fmt.Errorf("mem: CoW break of pinned page %#x", uint64(a))
	}
	as.Faults[FaultCoW]++
	if as.pm.RefCount(pte.Frame) == 1 {
		pte.CoW = false
		pte.Writable = true
		return NoFrame, NoFrame, nil
	}
	nf, err := as.allocFrame()
	if err != nil {
		return NoFrame, NoFrame, err
	}
	old = pte.Frame // caller DecRefs after copying
	pte.Frame = nf
	pte.CoW = false
	pte.Writable = true
	as.notifyChange(a.Page())
	return old, nf, nil
}

// MapCoW marks the page containing a as copy-on-write read-only,
// sharing its current frame (zIO-style lazy copy and fork both use
// this).
func (as *AddrSpace) MapCoW(a VA) error {
	pte, ok := as.pages[a.Page()]
	if !ok || !pte.Present {
		return fmt.Errorf("mem: MapCoW of non-present page %#x: %w", uint64(a), ErrBadAddress)
	}
	pte.CoW = true
	pte.Writable = false
	as.notifyChange(a.Page())
	return nil
}

// Fork clones the address space copy-on-write: private VMAs share
// frames marked CoW in both parent and child; shared VMAs stay shared.
func (as *AddrSpace) Fork() *AddrSpace {
	child := NewAddrSpace(as.pm)
	child.next = as.next
	child.home = as.home
	for _, v := range as.vmas {
		nv := *v
		child.vmas = append(child.vmas, &nv)
	}
	for vpn, pte := range as.pages {
		va := VA(vpn << PageShift)
		vma := as.FindVMA(va)
		np := *pte
		np.Pinned = 0
		as.pm.IncRef(pte.Frame)
		if vma != nil && !vma.Shared {
			pte.CoW = true
			pte.Writable = false
			np.CoW = true
			np.Writable = false
			as.notifyChange(vpn)
		}
		child.pages[vpn] = &np
	}
	return child
}

// LeakReport summarizes an address space's end-of-process audit: what
// is still pinned or mapped at a point where teardown should have
// released everything.
type LeakReport struct {
	PinnedPages int // pages with a nonzero pin count
	PinCount    int // total outstanding pins across those pages
	MappedPages int // present (frame-backed) pages still mapped
	VMAs        int // VMAs still mapped
}

// Clean reports whether the audit found no leaked pins.
func (r LeakReport) Clean() bool { return r.PinnedPages == 0 }

// AuditLeaks walks the page table and reports outstanding pins and
// mappings. Teardown tests assert Clean() after killing a client —
// catching pin leaks as a checked invariant instead of only as a
// panic deep inside Unpin. Counters only, so the report is
// deterministic despite map iteration.
func (as *AddrSpace) AuditLeaks() LeakReport {
	var r LeakReport
	for _, pte := range as.pages {
		if pte.Pinned > 0 {
			r.PinnedPages++
			r.PinCount += pte.Pinned
		}
		if pte.Present {
			r.MappedPages++
		}
	}
	r.VMAs = len(as.vmas)
	return r
}

// ReleaseAll unmaps every VMA, returning the backing frames to the
// allocator — the end-of-process memory reclaim. It refuses (and
// releases nothing) while pins are outstanding: the copy service must
// have dropped its pins before process memory is reclaimed, and a
// frame freed under an active pin would let in-flight DMA scribble on
// reallocated memory.
func (as *AddrSpace) ReleaseAll() error {
	if r := as.AuditLeaks(); !r.Clean() {
		return fmt.Errorf("mem: release with %d pinned pages (%d pins) outstanding",
			r.PinnedPages, r.PinCount)
	}
	for len(as.vmas) > 0 {
		if err := as.MUnmap(as.vmas[0].Start); err != nil {
			return err
		}
	}
	return nil
}

// FramesOf returns the frames backing [a, a+length). All pages must be
// present (fault them in first).
func (as *AddrSpace) FramesOf(a VA, length units.Bytes) ([]Frame, error) {
	var out []Frame
	for va := a & ^VA(PageSize-1); va < a+VA(length); va += PageSize {
		f, _, err := as.Translate(va)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// ReadAt copies len(p) bytes at address a into p, faulting pages in as
// needed (without cycle accounting — simulation layers charge costs).
func (as *AddrSpace) ReadAt(a VA, p []byte) error {
	return as.access(a, p, false)
}

// WriteAt copies p into the address space at a, faulting as needed
// (breaking CoW).
func (as *AddrSpace) WriteAt(a VA, p []byte) error {
	return as.access(a, p, true)
}

func (as *AddrSpace) access(a VA, p []byte, write bool) error {
	done := 0
	for done < len(p) {
		va := a + VA(done)
		if _, _, err := as.HandleFault(va, write); err != nil {
			return err
		}
		f, off, err := as.Translate(va)
		if err != nil {
			return err
		}
		n := PageSize - off
		if n > len(p)-done {
			n = len(p) - done
		}
		fb := as.pm.FrameBytes(f)
		if write {
			copy(fb[off:off+n], p[done:done+n])
		} else {
			copy(p[done:done+n], fb[off:off+n])
		}
		done += n
	}
	return nil
}
