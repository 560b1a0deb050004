package core

import (
	"bytes"
	"copier/internal/units"
	"fmt"
	"testing"

	"copier/internal/mem"
	"copier/internal/sim"
)

// Auto-scaling (§4.5.1): sustained backlog above HighLoad spawns a
// second thread; a drained queue parks it again.
func TestServiceAutoScaling(t *testing.T) {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(128 << 20)
	cfg := DefaultConfig()
	cfg.MaxThreads = 2
	cfg.HighLoad = 64 << 10
	cfg.LowLoad = 8 << 10
	svc := NewService(env, pm, cfg)
	svc.SetSpawnThread(func(slot int) {
		env.Go(fmt.Sprintf("copierd%d", slot), func(p *sim.Proc) {
			svc.ThreadMain(testCtx{p}, slot)
		})
	})
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("heavy", as, as, nil)
	const n = 64 << 10
	src := as.MMap(units.Bytes(n), mem.PermRead|mem.PermWrite, "s")
	dst := as.MMap(units.Bytes(n), mem.PermRead|mem.PermWrite, "d")
	if _, err := as.Populate(src, units.Bytes(n), true); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Populate(dst, units.Bytes(n), true); err != nil {
		t.Fatal(err)
	}

	maxActive := 0
	env.Go("feeder", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			if c.U.Copy.Len() < 128 {
				c.SubmitCopy(&Task{Src: src, Dst: dst, SrcAS: as, DstAS: as, Len: n}, false)
			}
			p.Wait(5_000)
			if svc.ActiveThreads() > maxActive {
				maxActive = svc.ActiveThreads()
			}
		}
	})
	env.Go("copierd0", func(p *sim.Proc) { svc.ThreadMain(testCtx{p}, 0) })
	if err := env.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if maxActive < 2 {
		t.Fatalf("auto-scaling never engaged a second thread (max %d)", maxActive)
	}
	// After the feeder stops, the backlog drains and the pool shrinks.
	if err := env.Run(env.Now() + 100_000_000); err != nil {
		t.Fatal(err)
	}
	if got := svc.ActiveThreads(); got > 1 {
		t.Fatalf("pool did not shrink after drain: %d active", got)
	}
	svc.Stop()
	_ = env.Run(env.Now() + 10_000_000)
}

// Two service threads partition clients and both make progress.
func TestServiceMultiThreadPartition(t *testing.T) {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(128 << 20)
	cfg := DefaultConfig()
	cfg.MaxThreads = 2
	svc := NewService(env, pm, cfg)
	mk := func(name string) (*Client, mem.VA, mem.VA, *mem.AddrSpace) {
		as := mem.NewAddrSpace(pm)
		c := svc.NewClient(name, as, as, nil)
		const n = 16 << 10
		src := as.MMap(units.Bytes(n), mem.PermRead|mem.PermWrite, "s")
		dst := as.MMap(units.Bytes(n), mem.PermRead|mem.PermWrite, "d")
		if _, err := as.Populate(src, units.Bytes(n), true); err != nil {
			t.Fatal(err)
		}
		if _, err := as.Populate(dst, units.Bytes(n), true); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteAt(src, bytes.Repeat([]byte{0xAD}, n)); err != nil {
			t.Fatal(err)
		}
		return c, src, dst, as
	}
	c0, s0, d0, as0 := mk("c0")
	c1, s1, d1, as1 := mk("c1")
	// Force the two-thread partition from the start.
	svc.activeThreads = 0
	env.Go("copierd0", func(p *sim.Proc) { svc.ThreadMain(testCtx{p}, 0) })
	env.Go("copierd1", func(p *sim.Proc) { svc.ThreadMain(testCtx{p}, 1) })

	t0 := &Task{Src: s0, Dst: d0, SrcAS: as0, DstAS: as0, Len: 16 << 10}
	t1 := &Task{Src: s1, Dst: d1, SrcAS: as1, DstAS: as1, Len: 16 << 10}
	c0.SubmitCopy(t0, false)
	c1.SubmitCopy(t1, false)
	if err := env.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if !t0.Executed() || !t1.Executed() {
		t.Fatalf("partitioned execution incomplete: %v %v", t0.Executed(), t1.Executed())
	}
	buf := make([]byte, 16)
	if err := as1.ReadAt(d1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAD {
		t.Fatal("second thread's copy wrong")
	}
	svc.Stop()
	_ = env.Run(env.Now() + 10_000_000)
}

// A partition change while a sweep is in flight must not let two
// threads serve one client at once. Auto-scaling spawns slot 1 while
// slot 0 still sweeps on its one-thread client snapshot, so both
// threads' snapshots hold c1, and slot 1 picks c1 while slot 0 is
// still serving it. Served by both at once, c1's rounds share one set
// of per-client scratch buffers, and a round ends up chunking a page
// nobody faulted in (a panic in contig). Every copy must complete.
func TestPartitionChangeServesClientOnce(t *testing.T) {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(64 << 20)
	cfg := DefaultConfig()
	cfg.MaxThreads = 2
	cfg.HighLoad = 16 << 10
	cfg.LowLoad = 8 << 10
	svc := NewService(env, pm, cfg)
	svc.SetSpawnThread(func(slot int) {
		env.Go(fmt.Sprintf("copierd%d", slot), func(p *sim.Proc) {
			svc.ThreadMain(testCtx{p}, slot)
		})
	})
	// Unpopulated buffers: the service demand-faults every page itself,
	// which stretches each round across many yields.
	const copies, n = 8, 4 << 10
	var tasks []*Task
	for ci := 0; ci < 2; ci++ {
		as := mem.NewAddrSpace(pm)
		c := svc.NewClient(fmt.Sprintf("c%d", ci), as, as, nil)
		src := as.MMap(copies*n, mem.PermRead|mem.PermWrite, "s")
		dst := as.MMap(copies*n, mem.PermRead|mem.PermWrite, "d")
		for i := 0; i < copies; i++ {
			off := mem.VA(i * n)
			task := &Task{Src: src + off, Dst: dst + off, SrcAS: as, DstAS: as, Len: n}
			if !c.SubmitCopy(task, false) {
				t.Fatal("copy ring full")
			}
			tasks = append(tasks, task)
		}
	}
	env.Go("copierd0", func(p *sim.Proc) { svc.ThreadMain(testCtx{p}, 0) })
	if err := env.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if !task.Executed() || task.Err() != nil {
			t.Fatalf("task %d: executed %v, err %v", i, task.Executed(), task.Err())
		}
	}
	if got := svc.Stats.TasksExecuted; got != 2*copies {
		t.Fatalf("TasksExecuted = %d, want %d", got, 2*copies)
	}
	svc.Stop()
	_ = env.Run(env.Now() + 10_000_000)
}

// A full user sync ring must not wedge csync: SubmitSync returns
// false and the caller's spin still completes via FIFO execution.
func TestSyncRingBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLen = 2
	h := newHarness(t, cfg)
	src := h.alloc(t, h.uas, 4096, 0x5E)
	dst := h.alloc(t, h.uas, 4096, 0)
	// Fill the sync ring without a running service.
	h.c.SubmitSync(dst, 1, false)
	h.c.SubmitSync(dst, 1, false)
	if h.c.SubmitSync(dst, 1, false) {
		t.Fatal("sync ring accepted beyond capacity")
	}
	task := &Task{Src: src, Dst: dst, SrcAS: h.uas, DstAS: h.uas, Len: 4096}
	h.c.SubmitCopy(task, false)
	h.start()
	h.run(t, 20_000_000)
	if !task.Executed() {
		t.Fatal("task unexecuted despite full sync ring")
	}
}
