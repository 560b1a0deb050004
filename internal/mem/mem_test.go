package mem

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"copier/internal/units"
)

func newPM() *PhysMem { return NewPhysMem(4 << 20) } // 1024 frames

func TestPhysAllocFreeCycle(t *testing.T) {
	pm := newPM()
	total := pm.NumFrames()
	fs, err := pm.AllocFrames(10)
	if err != nil {
		t.Fatal(err)
	}
	if pm.FreeFrames() != total-10 {
		t.Fatalf("free = %d", pm.FreeFrames())
	}
	for _, f := range fs {
		if pm.RefCount(f) != 1 {
			t.Fatalf("refcnt = %d", pm.RefCount(f))
		}
		pm.DecRef(f)
	}
	if pm.FreeFrames() != total {
		t.Fatalf("leak: free = %d of %d", pm.FreeFrames(), total)
	}
}

func TestPhysContiguousPolicy(t *testing.T) {
	pm := newPM()
	fs, err := pm.AllocFrames(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fs); i++ {
		if !Contiguous(fs[i-1], fs[i]) {
			t.Fatalf("allocation produced gap: %v", fs)
		}
	}
}

func TestPhysExhaustion(t *testing.T) {
	pm := NewPhysMem(8 * PageSize)
	if _, err := pm.AllocFrames(9); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	if pm.FreeFrames() != 8 {
		t.Fatalf("failed alloc leaked frames: %d", pm.FreeFrames())
	}
}

// TestFrameZeroedOnAlloc dirties every frame, frees frame 0 and the
// pair straddling the first chunk boundary, and reallocates them: each
// reused frame must read as zero end to end.
func TestFrameZeroedOnAlloc(t *testing.T) {
	pm := NewPhysMem(2 * chunkFrames * PageSize)
	fs, err := pm.AllocFrames(2 * chunkFrames)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		copy(pm.FrameBytes(f), bytes.Repeat([]byte("dirty"), PageSize/5))
	}
	for _, f := range []Frame{0, chunkFrames - 1, chunkFrames} {
		pm.DecRef(f)
	}
	first, err := pm.AllocFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := pm.AllocFrames(2)
	if err != nil {
		t.Fatal(err)
	}
	reused := append(first, pair...)
	if want := []Frame{0, chunkFrames - 1, chunkFrames}; fmt.Sprint(reused) != fmt.Sprint(want) {
		t.Fatalf("reallocated %v, want %v", reused, want)
	}
	zero := make([]byte, PageSize)
	for _, f := range reused {
		if !bytes.Equal(pm.FrameBytes(f), zero) {
			t.Errorf("reused frame %d not zeroed", f)
		}
	}
}

// TestTakeClearsOnlyReusedFrames: allocation clears a frame that was
// handed out before, and trusts one that never was to read zero as its
// chunk was made. Bytes written into a never-allocated frame (which
// nothing but this test does) therefore survive its first allocation,
// while a dirtied, freed and reallocated frame reads zero.
func TestTakeClearsOnlyReusedFrames(t *testing.T) {
	pm := NewPhysMem(chunkFrames * PageSize)
	dirty := bytes.Repeat([]byte("dirty"), PageSize/5)
	copy(pm.FrameBytes(1), dirty)
	fs, err := pm.AllocFrames(2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fs) != "[0 1]" {
		t.Fatalf("allocated %v, want [0 1]", fs)
	}
	if !bytes.Equal(pm.FrameBytes(1)[:len(dirty)], dirty) {
		t.Error("first allocation of frame 1 cleared it")
	}
	pm.DecRef(1)
	if f, err := pm.AllocFrame(); err != nil || f != 1 {
		t.Fatalf("reallocated %v, %v; want frame 1", f, err)
	}
	if !bytes.Equal(pm.FrameBytes(1), make([]byte, PageSize)) {
		t.Error("reallocated frame 1 not cleared")
	}
}

// TestNewPhysMemIsLazy: building a default-size machine's RAM costs
// bookkeeping, not the RAM itself.
func TestNewPhysMemIsLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pm := NewPhysMem(256 << 20)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pm)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewPhysMem(256 MB) allocated %d bytes of heap, want < 1 MB", got)
	}
}

// TestFrameBytesAcrossChunks: in a 65-frame PhysMem (one full chunk
// plus a one-frame tail) every frame, the last included, is a
// PageSize window of its own; writing one never shows through another,
// in particular not across the chunk boundary between 63 and 64.
func TestFrameBytesAcrossChunks(t *testing.T) {
	const n = chunkFrames + 1
	pm := NewPhysMem(n * PageSize)
	for f := Frame(0); f < n; f++ {
		b := pm.FrameBytes(f)
		if len(b) != PageSize || cap(b) != PageSize {
			t.Fatalf("frame %d: len %d cap %d, want %d", f, len(b), cap(b), PageSize)
		}
		for i := range b {
			b[i] = byte(f)
		}
	}
	for f := Frame(0); f < n; f++ {
		if !bytes.Equal(pm.FrameBytes(f), bytes.Repeat([]byte{byte(f)}, PageSize)) {
			t.Errorf("frame %d does not hold its own bytes", f)
		}
	}
}

func TestDemandPagingAndRW(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(3*PageSize, PermRead|PermWrite, "heap")
	if as.PTEOf(va) != nil {
		t.Fatal("page present before first touch")
	}
	msg := []byte("hello across a page boundary")
	addr := va + VA(PageSize-10)
	if err := as.WriteAt(addr, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if as.Faults[FaultDemandZero] != 2 {
		t.Fatalf("demand-zero faults = %d, want 2", as.Faults[FaultDemandZero])
	}
}

func TestClassify(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	ro := as.MMap(PageSize, PermRead, "ro")
	rw := as.MMap(PageSize, PermRead|PermWrite, "rw")
	if k := as.Classify(rw, false); k != FaultDemandZero {
		t.Fatalf("untouched rw read = %v", k)
	}
	if k := as.Classify(ro, true); k != FaultPermission {
		t.Fatalf("ro write = %v", k)
	}
	if k := as.Classify(VA(0x1234), false); k != FaultBadAddress {
		t.Fatalf("wild = %v", k)
	}
	if err := as.WriteAt(rw, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if k := as.Classify(rw, true); k != FaultNone {
		t.Fatalf("present write = %v", k)
	}
}

func TestGuardPageBetweenVMAs(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	a := as.MMap(PageSize, PermRead|PermWrite, "a")
	_ = as.MMap(PageSize, PermRead|PermWrite, "b")
	if err := as.WriteAt(a+PageSize, []byte{1}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("guard page writable: %v", err)
	}
}

func TestForkCoWSemantics(t *testing.T) {
	pm := newPM()
	parent := NewAddrSpace(pm)
	va := parent.MMap(2*PageSize, PermRead|PermWrite, "data")
	if err := parent.WriteAt(va, []byte("parent data")); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()

	// Both see the same data, same frame.
	pf, _, _ := parent.Translate(va)
	cf, _, _ := child.Translate(va)
	if pf != cf {
		t.Fatal("fork did not share frames")
	}
	if pm.RefCount(pf) != 2 {
		t.Fatalf("refcnt = %d, want 2", pm.RefCount(pf))
	}

	// Child write breaks CoW; parent unaffected.
	if err := child.WriteAt(va, []byte("child!")); err != nil {
		t.Fatal(err)
	}
	if child.Faults[FaultCoW] != 1 {
		t.Fatalf("child CoW faults = %d", child.Faults[FaultCoW])
	}
	cf2, _, _ := child.Translate(va)
	if cf2 == pf {
		t.Fatal("CoW break did not allocate new frame")
	}
	buf := make([]byte, 11)
	if err := parent.ReadAt(va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "parent data" {
		t.Fatalf("parent sees %q", buf)
	}
	// The child's copy holds the pre-write contents beyond the write.
	cbuf := make([]byte, 11)
	if err := child.ReadAt(va, cbuf); err != nil {
		t.Fatal(err)
	}
	if string(cbuf) != "child! data" {
		t.Fatalf("child sees %q", cbuf)
	}
}

func TestCoWSoleOwnerFastPath(t *testing.T) {
	pm := newPM()
	parent := NewAddrSpace(pm)
	va := parent.MMap(PageSize, PermRead|PermWrite, "d")
	if err := parent.WriteAt(va, []byte("x")); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	f0, _, _ := parent.Translate(va)
	// Drop the child's reference by unmapping.
	if err := child.MUnmap(va); err != nil {
		t.Fatal(err)
	}
	// Parent write: sole owner, no copy should happen.
	kind, copied, err := parent.HandleFault(va, true)
	if err != nil || kind != FaultCoW || copied != 0 {
		t.Fatalf("kind=%v copied=%d err=%v", kind, copied, err)
	}
	f1, _, _ := parent.Translate(va)
	if f1 != f0 {
		t.Fatal("sole-owner CoW reallocated frame")
	}
}

func TestPinPreventsRemapAndCoWBreak(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(PageSize, PermRead|PermWrite, "buf")
	if err := as.WriteAt(va, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := as.Pin(va, PageSize); err != nil {
		t.Fatal(err)
	}
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf); err == nil {
		t.Fatal("remap of pinned page succeeded")
	}
	pm.DecRef(nf)
	as.Unpin(va, PageSize)
	nf2, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf2); err != nil {
		t.Fatalf("remap after unpin: %v", err)
	}
	pm.DecRef(nf2)
}

func TestPinNonPresentFails(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(2*PageSize, PermRead|PermWrite, "buf")
	if err := as.WriteAt(va, []byte("z")); err != nil {
		t.Fatal(err)
	}
	// Second page untouched: pin must fail and roll back the first.
	if err := as.Pin(va, 2*PageSize); err == nil {
		t.Fatal("pin of non-present page succeeded")
	}
	if as.PTEOf(va).Pinned != 0 {
		t.Fatal("failed pin left first page pinned")
	}
}

func TestContigRun(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(8*PageSize, PermRead|PermWrite, "big")
	if _, err := as.Populate(va, 8*PageSize, true); err != nil {
		t.Fatal(err)
	}
	// Fresh memory hands out its lowest free frames: the whole run is
	// contiguous.
	if run := as.ContigRun(va, 8*PageSize); run != 8*PageSize {
		t.Fatalf("run = %d, want full", run)
	}
	// From mid-page.
	if run := as.ContigRun(va+100, 1000); run != 1000 {
		t.Fatalf("mid-page capped run = %d", run)
	}
	// Break contiguity by remapping page 4.
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va+4*PageSize, nf); err != nil {
		t.Fatal(err)
	}
	pm.DecRef(nf)
	if run := as.ContigRun(va, 8*PageSize); run != 4*PageSize {
		t.Fatalf("run after remap = %d, want %d", run, 4*PageSize)
	}
}

func TestMappingChangeNotification(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(PageSize, PermRead|PermWrite, "buf")
	if err := as.WriteAt(va, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var notified []uint64
	as.OnMappingChange(func(vpn uint64) { notified = append(notified, vpn) })
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf); err != nil {
		t.Fatal(err)
	}
	pm.DecRef(nf)
	if len(notified) != 1 || notified[0] != va.Page() {
		t.Fatalf("notified = %v", notified)
	}
	if err := as.MUnmap(va); err != nil {
		t.Fatal(err)
	}
	if len(notified) != 2 {
		t.Fatalf("unmap not notified: %v", notified)
	}
}

func TestMMapSharedCrossSpace(t *testing.T) {
	pm := newPM()
	a := NewAddrSpace(pm)
	b := NewAddrSpace(pm)
	va := a.MMap(2*PageSize, PermRead|PermWrite, "shm")
	if _, err := a.Populate(va, 2*PageSize, true); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteAt(va, []byte("shared payload")); err != nil {
		t.Fatal(err)
	}
	frames, err := a.FramesOf(va, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	vb := b.MMapShared(frames, PermRead, "shm-ro")
	buf := make([]byte, 14)
	if err := b.ReadAt(vb, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared payload" {
		t.Fatalf("b sees %q", buf)
	}
	// Writes through a are visible in b (same frames).
	if err := a.WriteAt(va, []byte("UPDATE")); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(vb, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:6]) != "UPDATE" {
		t.Fatalf("b sees %q after update", buf)
	}
	// b cannot write a read-only shared mapping.
	if err := b.WriteAt(vb, []byte{1}); !errors.Is(err, ErrPermission) {
		t.Fatalf("ro write err = %v", err)
	}
}

func TestVAHelpers(t *testing.T) {
	v := VA(5*PageSize + 17)
	if v.Page() != 5 || v.Offset() != 17 || v.PageAligned() {
		t.Fatalf("VA helpers wrong: page=%d off=%d", v.Page(), v.Offset())
	}
	if !VA(2 * PageSize).PageAligned() {
		t.Fatal("aligned VA not detected")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k := FaultNone; k <= FaultPermission; k++ {
		if k.String() == "fault?" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// Property: WriteAt then ReadAt round-trips arbitrary data at arbitrary
// in-VMA offsets.
func TestReadWriteRoundTripProperty(t *testing.T) {
	pm := NewPhysMem(16 << 20)
	as := NewAddrSpace(pm)
	const vmaLen = 64 * PageSize
	va := as.MMap(vmaLen, PermRead|PermWrite, "prop")
	f := func(off uint16, data []byte) bool {
		o := int64(off) % (vmaLen - int64(len(data)) - 1)
		if o < 0 {
			o = 0
		}
		if err := as.WriteAt(va+VA(o), data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := as.ReadAt(va+VA(o), got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: fork + divergent writes never corrupt the sibling.
func TestForkIsolationProperty(t *testing.T) {
	f := func(parentWrites, childWrites []byte) bool {
		pm := NewPhysMem(8 << 20)
		p := NewAddrSpace(pm)
		va := p.MMap(4*PageSize, PermRead|PermWrite, "d")
		base := bytes.Repeat([]byte{0xAB}, 2*PageSize)
		if err := p.WriteAt(va, base); err != nil {
			return false
		}
		c := p.Fork()
		if len(parentWrites) > 0 {
			if err := p.WriteAt(va+100, parentWrites); err != nil {
				return false
			}
		}
		if len(childWrites) > 0 {
			if err := c.WriteAt(va+200, childWrites); err != nil {
				return false
			}
		}
		pb := make([]byte, 2*PageSize)
		cb := make([]byte, 2*PageSize)
		if p.ReadAt(va, pb) != nil || c.ReadAt(va, cb) != nil {
			return false
		}
		wantP := append([]byte{}, base...)
		copy(wantP[100:], parentWrites)
		wantC := append([]byte{}, base...)
		copy(wantC[200:], childWrites)
		return bytes.Equal(pb, wantP) && bytes.Equal(cb, wantC)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFramesOfAndShared(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(3*PageSize, PermRead|PermWrite, "x")
	if _, err := as.FramesOf(va, 3*PageSize); !errors.Is(err, ErrBadAddress) {
		t.Fatal("FramesOf of unpopulated range succeeded")
	}
	if _, err := as.Populate(va, 3*PageSize, true); err != nil {
		t.Fatal(err)
	}
	fs, err := as.FramesOf(va, 3*PageSize)
	if err != nil || len(fs) != 3 {
		t.Fatalf("frames = %v err = %v", fs, err)
	}
}

func TestMUnmapUnknown(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	if err := as.MUnmap(VA(0xdead000)); err == nil {
		t.Fatal("munmap of unknown VMA succeeded")
	}
}

// TestMUnmapRefusesPinnedPage unmaps a VMA with one pinned page: the
// call must fail and release nothing, so the pinned frame is not the
// next one handed out and the pin holder can still Unpin.
func TestMUnmapRefusesPinnedPage(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(2*PageSize, PermRead|PermWrite, "buf")
	if _, err := as.Populate(va, 2*PageSize, true); err != nil {
		t.Fatal(err)
	}
	pinned, _, err := as.Translate(va + PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Pin(va+PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	free := pm.FreeFrames()
	if err := as.MUnmap(va); err == nil {
		t.Fatal("munmap of a VMA with a pinned page succeeded")
	}
	if pm.FreeFrames() != free || pm.RefCount(pinned) != 1 {
		t.Fatalf("refused munmap released frames: free %d -> %d, pinned frame refcount %d",
			free, pm.FreeFrames(), pm.RefCount(pinned))
	}
	if f, err := pm.AllocFrame(); err != nil || f == pinned {
		t.Fatalf("AllocFrame after refused munmap = %d, %v; pinned frame is %d", f, err, pinned)
	}
	if f, _, err := as.Translate(va); err != nil || as.FindVMA(va) == nil {
		t.Fatalf("refused munmap dropped the mapping: frame %d, %v", f, err)
	}
	as.Unpin(va+PageSize, PageSize)
	if err := as.MUnmap(va); err != nil {
		t.Fatalf("munmap after unpin: %v", err)
	}
	if pm.RefCount(pinned) != 0 {
		t.Fatalf("munmap after unpin left frame %d with refcount %d", pinned, pm.RefCount(pinned))
	}
}

var sinkPM *PhysMem

// BenchmarkNewPhysMem builds a default-size (256 MB) machine's
// physical memory, the setup cost every kernel.NewMachine pays.
func BenchmarkNewPhysMem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPM = NewPhysMem(256 << 20)
	}
}

// BenchmarkPopulate demand-faults a working set into a fresh 256 MB
// PhysMem, one page at a time, as an eager mmap does. On 4 nodes it is
// fleet-numa's set-up: 96 address spaces homed round-robin, 128 pages
// each (mirrored by RunMicrobenches' mem/populate-12k-4node). ns/page
// stays flat as the working set grows when each fault costs O(1).
func BenchmarkPopulate(b *testing.B) {
	for _, bc := range []struct {
		name                  string
		nodes, spaces, npages int
	}{
		{"4k", 1, 1, 4 << 10},
		{"32k", 1, 1, 32 << 10},
		{"12k-4node", 4, 96, 128},
	} {
		b.Run(bc.name, func(b *testing.B) {
			size := units.Pages(bc.npages).Bytes()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pm := NewPhysMem(256 << 20)
				if err := pm.ConfigureNodes(bc.nodes); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for s := 0; s < bc.spaces; s++ {
					as := NewAddrSpace(pm)
					as.SetHomeNode(s % bc.nodes)
					va := as.MMap(size, PermRead|PermWrite, "buf")
					if _, err := as.Populate(va, size, true); err != nil {
						b.Fatal(err)
					}
				}
			}
			pages := b.N * bc.spaces * bc.npages
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
		})
	}
}
