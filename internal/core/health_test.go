package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"copier/internal/cycles"
	"copier/internal/fault"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/units"
)

// TestDeadEngineKillClientNoLeaks covers the worst teardown ordering:
// the DMA engine dies permanently mid-run (fault.Rule Perm), then a
// client with queued and in-flight work is killed. Every task must
// reach a terminal state, the surviving client must complete via the
// CPU fallback with intact data, and neither address space may leak a
// single pin.
func TestDeadEngineKillClientNoLeaks(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	uas2 := mem.NewAddrSpace(h.pm)
	c2 := h.svc.NewClient("survivor", uas2, h.kas, nil)
	// The second DMA descriptor kills the engine for good.
	h.svc.SetFaultInjector(fault.New(11).AddRule(fault.Rule{
		Site: fault.SiteDMA, Nth: 2, Outcome: fault.Outcome{Perm: true},
	}))

	const n = 64 << 10
	const tasks = 12
	var all []*Task
	for i := 0; i < tasks; i++ {
		src := h.alloc(t, h.uas, n, byte(i+1))
		dst := h.alloc(t, h.uas, n, 0)
		task := &Task{Src: src, Dst: dst, SrcAS: h.uas, DstAS: h.uas, Len: n,
			Desc: NewDescriptor(dst, n, 0)}
		if !h.c.SubmitCopy(task, false) {
			t.Fatal("submit failed")
		}
		all = append(all, task)
	}
	src2 := h.alloc(t, uas2, n, 0x7E)
	dst2 := h.alloc(t, uas2, n, 0)
	t2 := &Task{Src: src2, Dst: dst2, SrcAS: uas2, DstAS: uas2, Len: n}
	if !c2.SubmitCopy(t2, false) {
		t.Fatal("submit failed")
	}

	// Kill the first client mid-flight, after the engine has died.
	h.env.Go("killer", func(p *sim.Proc) {
		ctx := testCtx{p}
		ctx.Exec(200_000)
		h.svc.KillClient(h.c)
	})
	h.start()
	h.run(t, 500_000_000)

	if h.svc.Stats.EngineDeaths != 1 {
		t.Fatalf("EngineDeaths = %d, want 1", h.svc.Stats.EngineDeaths)
	}
	if st := h.svc.EngineHealth(0); st != EngineDead {
		t.Fatalf("engine state = %v, want dead", st)
	}
	for i, task := range all {
		if !task.Executed() && !task.Aborted() {
			t.Fatalf("task %d has no terminal state after engine death + teardown", i)
		}
	}
	if h.svc.Stats.ClientTeardowns != 1 {
		t.Fatalf("ClientTeardowns = %d", h.svc.Stats.ClientTeardowns)
	}
	if !t2.Executed() || t2.Err() != nil {
		t.Fatalf("surviving client starved: executed=%v err=%v", t2.Executed(), t2.Err())
	}
	if !bytes.Equal(h.read(t, uas2, dst2, n), bytes.Repeat([]byte{0x7E}, n)) {
		t.Fatal("surviving client data corrupted")
	}
	// With the only DMA engine dead, the survivor's bytes must have been
	// diverted to the CPU engines.
	if h.svc.Stats.FallbackBytes == 0 {
		t.Fatal("no CPU fallback despite a dead DMA engine")
	}
	// Only the DMA-assigned chunks of a round count as diverted. DMA
	// moves 4 B/cycle against AVX's 8 or more, so the dispatcher assigns
	// DMA at most a third of any round, and the CPU copies every byte of
	// a diverted round: FallbackBytes stays within half the CPU-copied
	// bytes. Counting whole rounds as diverted would not.
	if st := h.svc.Stats; 2*st.FallbackBytes > st.AVXBytes {
		t.Errorf("FallbackBytes %d exceeds half of AVXBytes %d: whole rounds counted as diverted",
			st.FallbackBytes, st.AVXBytes)
	}
	if r := h.uas.AuditLeaks(); !r.Clean() {
		t.Fatalf("dead client leaked pins: %+v", r)
	}
	if r := uas2.AuditLeaks(); !r.Clean() {
		t.Fatalf("surviving client leaked pins: %+v", r)
	}
	if got := h.svc.Backlog(); got != 0 {
		t.Fatalf("backlog = %d", got)
	}
}

// TestQuarantineKillClientNoLeaks drives the engines into Quarantined
// via a high transient-failure rate, then kills a client while the
// quarantine/probe cycle is running. Teardown and quarantine must
// compose: terminal states for every task, clean pin audit. The flat
// machine runs as the one-node case of the sharded service, so both
// node counts follow the same health rule: a quarantined engine is
// offered one half-open probe chunk per round.
func TestQuarantineKillClientNoLeaks(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			testQuarantineKillClient(t, nodes)
		})
	}
}

func testQuarantineKillClient(t *testing.T, nodes int) {
	cfg := DefaultConfig()
	// Disable the post-fault cooldown so the engines keep taking work
	// and their health windows actually fill (every fallback is then a
	// health diversion); raise the per-task retry bound so transient
	// faults decide steering, not task outcomes.
	cfg.DMACooldown = -1
	cfg.MaxRetries = 64
	cfg.QuarantineProbe = 20 * cycles.CyclesPerMicrosecond
	h := newNUMAHarness(t, nodes, cfg)
	rec := obs.NewRecorder(0)
	h.env.SetRecorder(rec)
	victim, vas := h.clients[0], h.spaces[0]
	last := nodes - 1
	uas2 := mem.NewAddrSpace(h.pm)
	uas2.SetHomeNode(last)
	c2 := h.svc.NewClientOn("survivor", uas2, uas2, nil, last)
	// The survivor's space goes after the per-node ones, so h.alloc and
	// h.read reach it at index nodes.
	h.spaces = append(h.spaces, uas2)
	// 70% of DMA descriptors fail transiently: enough window failures to
	// quarantine the engines; CPU engines stay clean so work drains.
	h.svc.SetFaultInjector(fault.New(23).SetRates(fault.SiteDMA, fault.Rates{
		FailPpm: 700_000,
	}))

	const n = 64 << 10
	const tasks = 48
	var all []*Task
	for i := 0; i < tasks; i++ {
		src := h.alloc(t, 0, n, byte(i+1))
		dst := h.alloc(t, 0, n, 0)
		task := &Task{Src: src, Dst: dst, SrcAS: vas, DstAS: vas, Len: n}
		if !victim.SubmitCopy(task, false) {
			t.Fatal("submit failed")
		}
		all = append(all, task)
	}
	src2 := h.alloc(t, nodes, n, 0x6B)
	dst2 := h.alloc(t, nodes, n, 0)
	t2 := &Task{Src: src2, Dst: dst2, SrcAS: uas2, DstAS: uas2, Len: n}
	if !c2.SubmitCopy(t2, false) {
		t.Fatal("submit failed")
	}

	h.env.Go("killer", func(p *sim.Proc) {
		ctx := testCtx{p}
		ctx.Exec(600_000)
		h.svc.KillClient(victim)
	})
	h.start()
	h.run(t, 1_000_000_000)

	st := h.svc.Stats
	if st.Quarantines == 0 {
		t.Fatalf("engine never quarantined (degradations=%d, faults=%d) — rate too low to test anything",
			st.Degradations, st.DMAFaults)
	}
	for i, task := range all {
		if !task.Executed() && !task.Aborted() {
			t.Fatalf("task %d has no terminal state", i)
		}
	}
	if !t2.Executed() || t2.Err() != nil {
		t.Fatalf("surviving client starved: executed=%v err=%v", t2.Executed(), t2.Err())
	}
	if !bytes.Equal(h.read(t, nodes, dst2, n), bytes.Repeat([]byte{0x6B}, n)) {
		t.Fatal("surviving client data corrupted")
	}
	if r := vas.AuditLeaks(); !r.Clean() {
		t.Fatalf("dead client leaked pins: %+v", r)
	}
	if r := uas2.AuditLeaks(); !r.Clean() {
		t.Fatalf("surviving client leaked pins: %+v", r)
	}
	if got := h.svc.Backlog(); got != 0 {
		t.Fatalf("backlog = %d", got)
	}

	// One probe chunk per round: while an engine is quarantined, no two
	// of its descriptors share a submission time (a round submits to an
	// engine in one doorbell at one instant).
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	engineOf := map[string]int{}
	for e, d := range h.svc.DMAs() {
		engineOf[d.Track()] = e
	}
	quarantined := make([]bool, nodes)
	lastProbe := make([]int64, nodes)
	probes := 0
	rec.Events(func(ev *obs.Event) {
		switch ev.Kind {
		case obs.EvEngineHealth:
			quarantined[ev.A] = EngineState(ev.B) == EngineQuarantined
		case obs.EvDMASubmit:
			e := engineOf[ev.Track]
			if !quarantined[e] {
				return
			}
			if ev.T == lastProbe[e] {
				t.Errorf("engine %d: more than one probe chunk in the round at %d", e, ev.T)
			}
			lastProbe[e] = ev.T
			probes++
		}
	})
	if probes == 0 {
		t.Error("no half-open probe reached a quarantined engine")
	}
}

// TestShedSubmitStress floods tight-admission services from multiple
// submitter procs across parallel host worker threads (sim.RunJobs),
// with overload, deadline, and brownout shedding all active. The -race
// run of this package checks the shed paths against concurrent
// submission; the invariants check that shedding never loses a task or
// a pin. Cells are independent, so worker count cannot change results.
func TestShedSubmitStress(t *testing.T) {
	const jobs = 8
	errs := make([]error, jobs)
	sim.RunJobs(jobs, 4, func(jc *sim.JobCtx) {
		errs[jc.Index()] = runShedCell(jc)
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
	}
}

func runShedCell(jc *sim.JobCtx) error {
	env := jc.NewEnv()
	pm := mem.NewPhysMem(64 << 20)
	cfg := DefaultConfig()
	cfg.MaxPending = 4
	cfg.BrownoutHigh = 64 << 10
	cfg.BrownoutShedBelow = 50
	svc := NewService(env, pm, cfg)
	kas := mem.NewAddrSpace(pm)

	type cellClient struct {
		c   *Client
		uas *mem.AddrSpace
	}
	prod := cellClient{uas: mem.NewAddrSpace(pm)}
	prod.c = svc.NewClient("prod", prod.uas, kas, nil) // default group, 100 shares
	batch := cellClient{uas: mem.NewAddrSpace(pm)}
	batch.c = svc.NewClient("batch", batch.uas, kas, svc.Group("batch", 10))

	alloc := func(as *mem.AddrSpace, size int, fill byte) (mem.VA, error) {
		va := as.MMap(units.Bytes(size), mem.PermRead|mem.PermWrite, "buf")
		if _, err := as.Populate(va, units.Bytes(size), true); err != nil {
			return 0, err
		}
		return va, as.WriteAt(va, bytes.Repeat([]byte{fill}, size))
	}

	const n = 16 << 10
	const perClient = 80
	gap := sim.Time(500 + 37*jc.Index()) // vary interleavings per cell
	var all []*Task
	var allocErr error
	for ci, cc := range []cellClient{prod, batch} {
		cc := cc
		ci := ci
		env.Go(fmt.Sprintf("submit-%d", ci), func(p *sim.Proc) {
			ctx := testCtx{p}
			for i := 0; i < perClient; i++ {
				src, err1 := alloc(cc.uas, n, byte(i+1))
				dst, err2 := alloc(cc.uas, n, 0)
				if err1 != nil || err2 != nil {
					allocErr = errors.Join(err1, err2)
					return
				}
				task := &Task{Src: src, Dst: dst, SrcAS: cc.uas, DstAS: cc.uas, Len: n,
					Desc: NewDescriptor(dst, n, 0)}
				if i%2 == 1 {
					// Half the tasks carry a tight SLO deadline.
					task.Deadline = ctx.Now() + 100_000
				}
				if cc.c.SubmitCopy(task, false) {
					all = append(all, task)
				}
				ctx.Exec(gap)
			}
		})
	}
	env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(testCtx{p}, 0) })
	if err := env.Run(500_000_000); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	svc.Stop()
	if err := env.Run(510_000_000); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if allocErr != nil {
		return allocErr
	}

	var completed, overload, deadline int
	for i, task := range all {
		switch {
		case !task.Executed() && !task.Aborted():
			return fmt.Errorf("task %d accepted but has no terminal state", i)
		case task.Err() == nil:
			completed++
		case errors.Is(task.Err(), ErrOverload):
			overload++
		case errors.Is(task.Err(), ErrDeadline):
			deadline++
		default:
			return fmt.Errorf("task %d: unexpected error %v", i, task.Err())
		}
	}
	if completed+overload+deadline != len(all) {
		return fmt.Errorf("terminal classes %d+%d+%d != accepted %d",
			completed, overload, deadline, len(all))
	}
	if completed == 0 {
		return fmt.Errorf("everything shed — cell too overloaded to test completion")
	}
	shed := svc.Stats.OverloadShed + svc.Stats.DeadlineShed + svc.Stats.BrownoutShed
	if shed == 0 {
		return fmt.Errorf("no shedding — cell not overloaded enough to test anything")
	}
	for name, as := range map[string]*mem.AddrSpace{"prod": prod.uas, "batch": batch.uas} {
		if r := as.AuditLeaks(); !r.Clean() {
			return fmt.Errorf("%s leaked pins: %+v", name, r)
		}
	}
	if got := svc.Backlog(); got != 0 {
		return fmt.Errorf("backlog drift: %d", got)
	}
	return nil
}
