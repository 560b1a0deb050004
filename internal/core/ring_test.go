package core

import (
	"copier/internal/units"
	"testing"
	"testing/quick"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 4; i++ {
		if !r.Push(&Task{ID: uint64(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !r.Full() {
		t.Fatal("ring not full")
	}
	if r.Push(&Task{}) {
		t.Fatal("push into full ring succeeded")
	}
	for i := 0; i < 4; i++ {
		got := r.Pop()
		if got == nil || got.ID != uint64(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	if r.Pop() != nil {
		t.Fatal("pop from empty ring")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(2)
	for round := 0; round < 10; round++ {
		if !r.Push(&Task{ID: uint64(round)}) {
			t.Fatalf("round %d push failed", round)
		}
		got := r.Pop()
		if got.ID != uint64(round) {
			t.Fatalf("round %d got %d", round, got.ID)
		}
	}
}

func TestRingAcquirePos(t *testing.T) {
	r := NewRing(8)
	if r.AcquirePos() != 0 {
		t.Fatal("initial pos != 0")
	}
	r.Push(&Task{})
	r.Push(&Task{})
	if r.AcquirePos() != 2 {
		t.Fatalf("pos = %d", r.AcquirePos())
	}
	r.Pop()
	if r.AcquirePos() != 2 {
		t.Fatal("pop changed acquire pos")
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if NewRing(5).Cap() != 8 {
		t.Fatal("cap not rounded to power of 2")
	}
	if NewRing(8).Cap() != 8 {
		t.Fatal("exact power changed")
	}
}

// TestRingPublishNilPanics: nil is a slot's cleared valid bit, so
// publishing a nil task would leave the slot unpublished forever.
func TestRingPublishNilPanics(t *testing.T) {
	r := NewRing(4)
	pos, _ := r.Acquire()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic publishing a nil task")
		}
	}()
	r.Publish(pos, nil)
}

func TestRingPeek(t *testing.T) {
	r := NewRing(4)
	if r.Peek() != nil {
		t.Fatal("peek on empty")
	}
	r.Push(&Task{ID: 7})
	if r.Peek().ID != 7 || r.Peek().ID != 7 {
		t.Fatal("peek consumed")
	}
	if r.Pop().ID != 7 {
		t.Fatal("pop after peek")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order.
func TestRingFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRing(16)
		next := uint64(0)
		want := uint64(0)
		for _, push := range ops {
			if push {
				if r.Push(&Task{ID: next}) {
					next++
				}
			} else if got := r.Pop(); got != nil {
				if got.ID != want {
					return false
				}
				want++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorMarkReady(t *testing.T) {
	d := NewDescriptor(0x1000, 4096, 1024)
	if d.NumSegs() != 4 {
		t.Fatalf("segs = %d", d.NumSegs())
	}
	if d.Ready(0, 1) {
		t.Fatal("fresh descriptor ready")
	}
	d.MarkRange(0, 1024)
	if !d.Ready(0, 1024) || d.Ready(0, 1025) {
		t.Fatal("segment boundary wrong")
	}
	d.MarkRange(1024, 3072)
	if !d.Done() {
		t.Fatal("not done after full mark")
	}
	if !d.Ready(0, 4096) {
		t.Fatal("full range not ready")
	}
}

func TestDescriptorPartialSegment(t *testing.T) {
	d := NewDescriptor(0, 2500, 1024) // 3 segments, last partial
	if d.NumSegs() != 3 {
		t.Fatalf("segs = %d", d.NumSegs())
	}
	d.MarkRange(2048, 452) // covers the partial tail
	if !d.Ready(2400, 100) {
		t.Fatal("tail not ready")
	}
	if d.Done() {
		t.Fatal("done with 2 segments unset")
	}
}

func TestDescriptorZeroLenRange(t *testing.T) {
	d := NewDescriptor(0, 1024, 1024)
	if !d.Ready(100, 0) {
		t.Fatal("zero-length range should be trivially ready")
	}
}

func TestDescriptorResetAndReuse(t *testing.T) {
	d := NewDescriptor(0x1000, 2048, 1024)
	d.MarkRange(0, 2048)
	d.Err = ErrClosedSentinel
	d.Reset(0x9000, 4096)
	if d.Base != 0x9000 || d.Len != 4096 || d.Err != nil {
		t.Fatal("reset metadata wrong")
	}
	if d.Ready(0, 1) || d.Done() {
		t.Fatal("reset kept bits")
	}
	d.MarkRange(0, 4096)
	if !d.Done() {
		t.Fatal("reused descriptor cannot complete")
	}
}

// ErrClosedSentinel is a reusable error value for tests.
var ErrClosedSentinel = errTest("sentinel")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestDescriptorBadRangePanics(t *testing.T) {
	d := NewDescriptor(0, 1000, 512)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range")
		}
	}()
	d.Ready(900, 200)
}

func TestDescriptorCovers(t *testing.T) {
	d := NewDescriptor(0x1000, 100, 64)
	if !d.Covers(0x1000) || !d.Covers(0x1063) || d.Covers(0x1064) || d.Covers(0xFFF) {
		t.Fatal("covers wrong")
	}
}

// Property: marking arbitrary subranges makes exactly those covering
// segments ready.
func TestDescriptorMarkProperty(t *testing.T) {
	f := func(off, n uint16) bool {
		const L = 16384
		d := NewDescriptor(0, L, 1024)
		o := units.Bytes(off) % L
		ln := units.Bytes(n) % (L - o)
		if ln == 0 {
			return true
		}
		d.MarkRange(o, ln)
		// Every byte in the marked range must be ready.
		if !d.Ready(o, ln) {
			return false
		}
		// Bytes more than a segment away must not be.
		if o >= 1024 && d.Ready(0, 1) {
			return false
		}
		tail := o + ln
		if tail+1024 < L {
			segStart := (tail/1024 + 1) * 1024
			if segStart < L && d.Ready(segStart, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
