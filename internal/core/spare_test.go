package core

import (
	"bytes"
	"testing"

	"copier/internal/sim"
	"copier/internal/units"
)

// A finished task gives its issued tracker and pin list back to the
// service, so a client that submits fresh tasks one after another
// keeps reusing one of each. The sizes grow and shrink so a reused
// tracker's bitmap must be regrown and cleared correctly: each copy
// must still land whole.
func TestFinishedTasksLendTrackerAndPins(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	sizes := []units.Bytes{4 << 10, 128 << 10, 1 << 10, 64 << 10, 4 << 10, 96 << 10}
	src := h.alloc(t, h.uas, 128<<10, 0x5A)
	tasks := make([]*Task, len(sizes))
	for i, n := range sizes {
		dst := h.alloc(t, h.uas, int(n), 0)
		tasks[i] = &Task{Src: src, Dst: dst, SrcAS: h.uas, DstAS: h.uas, Len: n}
	}
	h.env.Go("submitter", func(p *sim.Proc) {
		for _, task := range tasks {
			if !h.c.SubmitCopy(task, false) {
				t.Error("submit failed")
				return
			}
			for !task.Executed() {
				h.c.Progress.Wait(p)
			}
		}
	})
	h.start()
	h.run(t, 100_000_000)
	for i, task := range tasks {
		if !task.Executed() || !task.Desc.Done() {
			t.Fatalf("task %d: executed=%v done=%v", i, task.Executed(), task.Desc.Done())
		}
		if task.issued != nil || task.pins != nil {
			t.Errorf("task %d kept its issued tracker or pin list after finishing", i)
		}
		want := bytes.Repeat([]byte{0x5A}, int(task.Len))
		if !bytes.Equal(h.read(t, h.uas, task.Dst, int(task.Len)), want) {
			t.Errorf("task %d: destination differs from source", i)
		}
	}
	if n, m := len(h.svc.spareIssued), len(h.svc.sparePins); n != 1 || m != 1 {
		t.Errorf("service holds %d spare trackers and %d spare pin lists, want 1 and 1", n, m)
	}
}

// A reused descriptor starts from a clean slate at its new size.
func TestDescriptorInitClearsReusedBitmap(t *testing.T) {
	d := NewDescriptor(0x1000, 128<<10, DefaultSegSize)
	d.MarkRange(0, 128<<10)
	d.Err = ErrClientDead
	d.Watch()
	d.init(0x9000, 2<<10, 512)
	if d.Base != 0x9000 || d.Len != 2<<10 || d.SegSize != 512 || d.NumSegs() != 4 {
		t.Fatalf("init left base %#x len %d seg %d", d.Base, d.Len, d.SegSize)
	}
	if d.Done() || d.Ready(0, 512) || d.Err != nil || d.watch != nil || len(d.bits) != 1 || d.bits[0] != 0 {
		t.Fatalf("init kept state: done=%v err=%v watch=%v bits=%v", d.Done(), d.Err, d.watch != nil, d.bits)
	}
	d.MarkRange(0, 2<<10)
	if !d.Done() {
		t.Fatal("reinitialized descriptor never completes")
	}
}
