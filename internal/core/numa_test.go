package core

import (
	"bytes"
	"testing"

	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// numaHarness builds a sharded service over a multi-node machine with
// one service thread per node and one client homed on each node.
type numaHarness struct {
	env     *sim.Env
	pm      *mem.PhysMem
	svc     *Service
	clients []*Client
	spaces  []*mem.AddrSpace
}

func newNUMAHarness(t *testing.T, nodes int, cfg Config) *numaHarness {
	t.Helper()
	tp := topo.NUMA(nodes, 2, 32<<20)
	cfg.Topo = tp
	env := sim.NewEnv()
	pm := mem.NewPhysMem(tp.TotalMem())
	if err := pm.ConfigureNodes(nodes); err != nil {
		t.Fatal(err)
	}
	svc := NewService(env, pm, cfg)
	h := &numaHarness{env: env, pm: pm, svc: svc}
	for n := 0; n < nodes; n++ {
		as := mem.NewAddrSpace(pm)
		as.SetHomeNode(n)
		c := svc.NewClientOn("cl", as, as, nil, n)
		h.clients = append(h.clients, c)
		h.spaces = append(h.spaces, as)
	}
	return h
}

func (h *numaHarness) start() {
	for slot := 0; slot < h.svc.numNodes(); slot++ {
		s := slot
		h.env.Go("copierd", func(p *sim.Proc) {
			h.svc.ThreadMain(testCtx{p}, s)
		})
	}
}

func (h *numaHarness) run(t *testing.T, until sim.Time) {
	t.Helper()
	if err := h.env.Run(until); err != nil {
		t.Fatal(err)
	}
	h.svc.Stop()
	if err := h.env.Run(until + 10_000_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func (h *numaHarness) alloc(t *testing.T, node int, size int, fill byte) mem.VA {
	t.Helper()
	as := h.spaces[node]
	va := as.MMap(units.Bytes(size), mem.PermRead|mem.PermWrite, "buf")
	if _, err := as.Populate(va, units.Bytes(size), true); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(va, bytes.Repeat([]byte{fill}, size)); err != nil {
		t.Fatal(err)
	}
	return va
}

// runFlatWorkload drives the same 12-task copy workload through a
// service configured by cfg and reports when the last task completed
// plus the executed-task count — the signature the flat-equivalence
// test compares.
func runFlatWorkload(t *testing.T, cfg Config) (sim.Time, int64, int64) {
	t.Helper()
	env := sim.NewEnv()
	pm := mem.NewPhysMem(64 << 20)
	svc := NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("w", as, as, nil)

	const n = 48 << 10
	const tasks = 12
	type pair struct{ src, dst mem.VA }
	pairs := make([]pair, tasks)
	for i := range pairs {
		src := as.MMap(n, mem.PermRead|mem.PermWrite, "src")
		dst := as.MMap(n, mem.PermRead|mem.PermWrite, "dst")
		if _, err := as.Populate(src, n, true); err != nil {
			t.Fatal(err)
		}
		if _, err := as.Populate(dst, n, true); err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{src, dst}
	}
	var doneAt sim.Time
	done := 0
	env.Go("driver", func(p *sim.Proc) {
		for _, pr := range pairs {
			task := &Task{Src: pr.src, Dst: pr.dst, SrcAS: as, DstAS: as, Len: n}
			task.Handler = &Handler{Kernel: true, Fn: func() {
				done++
				doneAt = env.Now()
			}}
			if !c.SubmitCopy(task, false) {
				t.Error("submit failed")
			}
			p.Wait(2_000)
		}
	})
	env.Go("copierd", func(p *sim.Proc) {
		svc.ThreadMain(testCtx{p}, 0)
	})
	if err := env.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	if err := env.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if done != tasks {
		t.Fatalf("completed %d/%d tasks", done, tasks)
	}
	return doneAt, svc.Stats.TasksExecuted, svc.DMAs()[0].BytesCopied
}

// A single-node topology must reproduce the flat service cycle for
// cycle: same completion time, same stats, same engine traffic.
func TestSingleNodeTopologyMatchesFlatExactly(t *testing.T) {
	flatAt, flatExec, flatDMA := runFlatWorkload(t, DefaultConfig())

	cfg := DefaultConfig()
	cfg.Topo = topo.SingleNode(4, 64<<20)
	topoAt, topoExec, topoDMA := runFlatWorkload(t, cfg)

	if flatAt != topoAt {
		t.Errorf("completion time diverged: flat %d, single-node topo %d", flatAt, topoAt)
	}
	if flatExec != topoExec {
		t.Errorf("TasksExecuted diverged: flat %d, topo %d", flatExec, topoExec)
	}
	if flatDMA != topoDMA {
		t.Errorf("DMA bytes diverged: flat %d, topo %d", flatDMA, topoDMA)
	}
}

// Node-local traffic stays on the node's own engine: a client homed
// on node 2 copying node-2 memory must not touch any other engine.
func TestShardedServicePrefersLocalEngine(t *testing.T) {
	h := newNUMAHarness(t, 4, DefaultConfig())
	const n = 64 << 10
	src := h.alloc(t, 2, n, 0x5C)
	dst := h.alloc(t, 2, n, 0)
	task := &Task{Src: src, Dst: dst, SrcAS: h.spaces[2], DstAS: h.spaces[2], Len: n}
	if !h.clients[2].SubmitCopy(task, false) {
		t.Fatal("submit failed")
	}
	h.start()
	h.run(t, 50_000_000)
	if !task.Executed() {
		t.Fatal("task not executed")
	}
	if got := h.read(t, 2, dst, n); !bytes.Equal(got, bytes.Repeat([]byte{0x5C}, n)) {
		t.Fatal("data not copied")
	}
	for e, d := range h.svc.DMAs() {
		if e == 2 {
			if d.BytesCopied == 0 {
				t.Errorf("node-2 engine idle; DMA bytes went elsewhere")
			}
			continue
		}
		if d.BytesCopied != 0 {
			t.Errorf("engine %d copied %d bytes of node-2-local traffic", e, d.BytesCopied)
		}
	}
	if h.svc.Stats.RemoteSpills != 0 {
		t.Errorf("local workload spilled %d chunks", h.svc.Stats.RemoteSpills)
	}
}

func (h *numaHarness) read(t *testing.T, node int, va mem.VA, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := h.spaces[node].ReadAt(va, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// Overloading one node's engine steers chunks to remote engines once
// the local queue's drain time exceeds the distance-scaled remote
// cost — and the spill counters record it.
func TestEngineSteeringSpillsUnderLoad(t *testing.T) {
	h := newNUMAHarness(t, 4, DefaultConfig())
	const n = 256 << 10
	const tasks = 6
	for i := 0; i < tasks; i++ {
		src := h.alloc(t, 0, n, byte(i+1))
		dst := h.alloc(t, 0, n, 0)
		task := &Task{Src: src, Dst: dst, SrcAS: h.spaces[0], DstAS: h.spaces[0], Len: n}
		if !h.clients[0].SubmitCopy(task, false) {
			t.Fatal("submit failed")
		}
	}
	h.start()
	h.run(t, 200_000_000)
	if h.svc.Stats.TasksExecuted != tasks {
		t.Fatalf("executed %d/%d", h.svc.Stats.TasksExecuted, tasks)
	}
	if h.svc.Stats.RemoteSpills == 0 {
		t.Error("no chunks spilled to remote engines under local overload")
	}
	if h.svc.Stats.RemoteDMABytes == 0 {
		t.Error("RemoteDMABytes not accounted")
	}
	var remote int64
	for e, d := range h.svc.DMAs() {
		if e != 0 {
			remote += d.BytesCopied
		}
	}
	if remote == 0 {
		t.Error("remote engines copied nothing despite recorded spills")
	}
}

// queuedOnRings sums the tasks queued on every core's user submit
// ring.
func queuedOnRings(c *Client) int {
	n := 0
	for _, r := range c.uRings {
		n += r.Len()
	}
	return n
}

// Per-core submit rings: tasks submitted via SubmitCopyOn are admitted
// in ring order and execute normally.
func TestQueueArraySubmitAndExecute(t *testing.T) {
	h := newNUMAHarness(t, 2, DefaultConfig())
	c := h.clients[1]
	c.EnableShards(4)
	const n = 16 << 10
	type buf struct{ src, dst mem.VA }
	bufs := make([]buf, 4)
	tasks := make([]*Task, 4)
	for i := range bufs {
		bufs[i] = buf{h.alloc(t, 1, n, byte(0x10+i)), h.alloc(t, 1, n, 0)}
		tasks[i] = &Task{Src: bufs[i].src, Dst: bufs[i].dst, SrcAS: h.spaces[1], DstAS: h.spaces[1], Len: n}
		tasks[i].Desc = NewDescriptor(tasks[i].Dst, tasks[i].Len, DefaultSegSize)
		if !c.SubmitCopyOn(i, tasks[i]) {
			t.Fatalf("shard submit %d failed", i)
		}
	}
	if got := queuedOnRings(c); got != 4 {
		t.Fatalf("%d tasks queued on the submit rings, want 4", got)
	}
	h.start()
	h.run(t, 50_000_000)
	for i, task := range tasks {
		if !task.Executed() {
			t.Errorf("shard task %d not executed", i)
		}
		want := bytes.Repeat([]byte{byte(0x10 + i)}, n)
		if !bytes.Equal(h.read(t, 1, bufs[i].dst, n), want) {
			t.Errorf("shard task %d data wrong", i)
		}
	}
}

// A full submit ring sheds: SubmitCopyOn returns false and the open-
// loop caller moves on.
func TestQueueArrayShedsWhenFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLen = 2
	env := sim.NewEnv()
	pm := mem.NewPhysMem(4 << 20)
	svc := NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("shed", as, as, nil)
	c.EnableShards(1)
	mk := func() *Task {
		task := &Task{Src: 0x1000, Dst: 0x2000, SrcAS: as, DstAS: as, Len: 64}
		task.Desc = NewDescriptor(task.Dst, task.Len, DefaultSegSize)
		return task
	}
	if !c.SubmitCopyOn(0, mk()) || !c.SubmitCopyOn(0, mk()) {
		t.Fatal("ring should hold 2 tasks")
	}
	if c.SubmitCopyOn(0, mk()) {
		t.Fatal("full ring accepted a third task")
	}
}

// Teardown reclaims the tasks queued on every core's submit ring of a
// dead client.
func TestTeardownDrainsShardRings(t *testing.T) {
	h := newNUMAHarness(t, 2, DefaultConfig())
	c := h.clients[0]
	c.EnableShards(2)
	const n = 8 << 10
	for i := 0; i < 6; i++ {
		src := h.alloc(t, 0, n, 0xEE)
		dst := h.alloc(t, 0, n, 0)
		task := &Task{Src: src, Dst: dst, SrcAS: h.spaces[0], DstAS: h.spaces[0], Len: n}
		task.Desc = NewDescriptor(task.Dst, task.Len, DefaultSegSize)
		if !c.SubmitCopyOn(i%2, task) {
			t.Fatalf("submit %d failed", i)
		}
	}
	h.svc.KillClient(c)
	h.start()
	h.run(t, 50_000_000)
	if !c.Closed() {
		t.Fatal("client not closed by teardown")
	}
	if n := queuedOnRings(c); n != 0 {
		t.Fatalf("%d tasks leaked in the submit rings", n)
	}
	if h.svc.Stats.ReclaimedTasks == 0 {
		t.Error("teardown reclaimed nothing")
	}
}

// Alloc pin: the per-core submit path must not allocate (the
// //copier:noalloc discipline extends to the per-core rings).
func TestSubmitCopyOnAllocFree(t *testing.T) {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(4 << 20)
	svc := NewService(env, pm, DefaultConfig())
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("pin", as, as, nil)
	c.EnableShards(2)
	tasks := make([]*Task, 256)
	for i := range tasks {
		tasks[i] = &Task{Src: 0x1000, Dst: 0x2000, SrcAS: as, DstAS: as, Len: 64}
		tasks[i].Desc = NewDescriptor(tasks[i].Dst, tasks[i].Len, DefaultSegSize)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if !c.SubmitCopyOn(i&1, tasks[i]) {
			t.Fatal("submit failed")
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("SubmitCopyOn allocates %.1f objects per call, want 0", avg)
	}
}

// Core 0's ring is the user Copy Queue, so SubmitCopyOn(0, …) and
// SubmitCopy(…, false) share one FIFO: of two copies onto one
// destination, the one submitted last lands last.
func TestCoreZeroSubmissionsKeepOrder(t *testing.T) {
	h := newNUMAHarness(t, 2, DefaultConfig())
	c := h.clients[0]
	c.EnableShards(2)
	const n = 8 << 10
	dst := h.alloc(t, 0, n, 0)
	mk := func(fill byte) *Task {
		task := &Task{Src: h.alloc(t, 0, n, fill), Dst: dst, SrcAS: h.spaces[0], DstAS: h.spaces[0], Len: n}
		task.Desc = NewDescriptor(task.Dst, task.Len, DefaultSegSize)
		return task
	}
	a, b := mk(0xaa), mk(0xbb)
	if !c.SubmitCopyOn(0, a) {
		t.Fatal("SubmitCopyOn(0, A) refused")
	}
	if !c.SubmitCopy(b, false) {
		t.Fatal("SubmitCopy(B) refused")
	}
	h.start()
	h.run(t, 50_000_000)
	if !a.Executed() || !b.Executed() {
		t.Fatalf("executed A=%v B=%v, want both", a.Executed(), b.Executed())
	}
	if got := h.read(t, 0, dst, n); !bytes.Equal(got, bytes.Repeat([]byte{0xbb}, n)) {
		t.Fatalf("destination starts %#x, want B's 0xbb throughout", got[0])
	}
}
