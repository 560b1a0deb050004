package bench

import (
	"bytes"
	"fmt"

	"copier/internal/baseline"
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/kernel"
	"copier/internal/libcopier"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

func init() {
	register("fig7a", "Fig. 7-a", runFig7a)
	register("fig9", "Fig. 9", runFig9)
	register("fig10", "Fig. 10", runFig10)
	register("binder", "§6.1.2 Binder IPC", runBinder)
	register("cow", "§6.1.2 CoW handling", runCoW)
	register("scope", "§4.6 break-even sizes", runScope)
	register("fig3", "Fig. 3 Copy-Use windows", runFig3)
	register("sendfile", "Table 1 file-send comparison", runSendfile)
	register("isolation", "§4.5 fairness & isolation", runIsolation)
}

// runIsolation demonstrates the copier cgroup controller: clients in
// groups with different copier.shares receive copy bandwidth in
// proportion to their shares under saturation (§4.5.2/§4.5.3), and a
// greedy client cannot starve others.
func runIsolation(s Scale) []*Table {
	t := &Table{ID: "isolation", Title: "Copy bandwidth split under saturation (copier.shares)",
		Columns: []string{"shares A:B", "bytes A", "bytes B", "measured ratio"}}
	for _, shares := range [][2]int64{{100, 100}, {200, 100}, {300, 100}} {
		a, b := isolationRun(shares[0], shares[1])
		ratio := float64(a) / float64(b)
		t.AddRow(fmt.Sprintf("%d:%d", shares[0], shares[1]),
			kb(int(a)), kb(int(b)), fmt.Sprintf("%.2f", ratio))
	}
	t.Note("copy length is the managed resource; the per-group CFS keys are scaled by copier.shares")
	return []*Table{t}
}

func isolationRun(sharesA, sharesB int64) (int64, int64) {
	// Harness windows, not hardware costs: how long the saturated
	// phase runs and how long the service gets to drain after Stop.
	const (
		loadWindow  sim.Time = 15_000_000
		drainWindow sim.Time = 1_000_000
	)
	env := sim.NewEnv()
	pm := mem.NewPhysMem(128 << 20)
	svc := core.NewService(env, pm, core.DefaultConfig())
	mk := func(name string, shares int64) *core.Client {
		as := mem.NewAddrSpace(pm)
		g := svc.Group(name, shares)
		c := svc.NewClient(name, as, as, g)
		const n = 64 << 10
		src := as.MMap(n, mem.PermRead|mem.PermWrite, "s")
		dst := as.MMap(n, mem.PermRead|mem.PermWrite, "d")
		if _, err := as.Populate(src, n, true); err != nil {
			panic(err)
		}
		if _, err := as.Populate(dst, n, true); err != nil {
			panic(err)
		}
		env.Go("feeder-"+name, func(p *sim.Proc) {
			for i := 0; i < 20000; i++ {
				if c.U.Copy.Len() < 64 {
					c.SubmitCopy(&core.Task{Src: src, Dst: dst, SrcAS: as, DstAS: as, Len: n}, false)
				}
				p.Wait(1_000)
			}
		})
		return c
	}
	ca := mk("A", sharesA)
	cb := mk("B", sharesB)
	env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(benchCtx{p}, 0) })
	if err := env.Run(loadWindow); err != nil {
		panic(err)
	}
	svc.Stop()
	_ = env.Run(env.Now() + drainWindow)
	return ca.TotalCopied, cb.TotalCopied
}

// runSendfile compares the three ways to push a cached file to a
// socket: read()+send() (two copies), sendfile (one kernel copy,
// blocking — Table 1's "address transfer in kernel"), and
// sendfile+Copier (one asynchronous kernel copy).
func runSendfile(s Scale) []*Table {
	t := &Table{ID: "sendfile", Title: "File-to-socket send latency (cycles)",
		Columns: []string{"size", "read+send", "sendfile", "sendfile+Copier"}}
	for _, n := range []units.Bytes{16 << 10, 64 << 10, 256 << 10} {
		t.AddRow(kb(int(n)),
			fmt.Sprintf("%d", fileSendLatency(n, 0)),
			fmt.Sprintf("%d", fileSendLatency(n, 1)),
			fmt.Sprintf("%d", fileSendLatency(n, 2)))
	}
	t.Note("sendfile removes the user bounce; Copier additionally unblocks the caller during the copy")
	return []*Table{t}
}

func fileSendLatency(n units.Bytes, mode int) sim.Time {
	m := kernel.NewMachine(kernel.Config{Cores: 3, MemBytes: 128 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 2)
	srv := m.NewProcess("srv")
	m.AttachCopier(srv)
	fs := m.NewFS()
	f := fs.Create("blob", make([]byte, n))
	ss, cs := m.Net().SocketPair("s", "c")
	buf := mustBufIn(srv, n)
	var lat sim.Time
	const iters = 8
	tx := m.Spawn(srv, "tx", func(t *kernel.Thread) {
		start := t.Now()
		for i := 0; i < iters; i++ {
			var err error
			switch mode {
			case 0:
				if _, err = fs.Read(t, f, 0, buf, n); err == nil {
					err = ss.Send(t, buf, n)
				}
			case 1:
				err = fs.SendFile(t, ss, f, 0, n)
			case 2:
				err = fs.SendFileCopier(t, ss, f, 0, n)
			}
			if err != nil {
				panic(err)
			}
		}
		lat = (t.Now() - start) / iters
	})
	rx := m.Spawn(m.NewProcess("cli"), "rx", func(t *kernel.Thread) {
		rbuf := mustBufIn(t.Proc, n)
		for i := 0; i < iters; i++ {
			if _, err := cs.Recv(t, rbuf, n); err != nil {
				return
			}
		}
	})
	if err := m.RunApps(tx, rx); err != nil {
		panic(err)
	}
	return lat
}

// runFig7a reports per-unit copy throughput by size: AVX2 > ERMS >
// DMA, with DMA especially poor for small copies.
func runFig7a(s Scale) []*Table {
	t := &Table{ID: "fig7a", Title: "Copy unit throughput (bytes/cycle, incl. startup/submit)",
		Columns: []string{"size", "AVX2", "ERMS", "DMA"}}
	for _, n := range []units.Bytes{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		t.AddRow(kb(int(n)),
			fmt.Sprintf("%.2f", cycles.Throughput(cycles.UnitAVX, n)),
			fmt.Sprintf("%.2f", cycles.Throughput(cycles.UnitERMS, n)),
			fmt.Sprintf("%.2f", cycles.Throughput(cycles.UnitDMA, n)))
	}
	t.Note("paper: AVX2 fastest at every size; DMA slowest, 'especially for small copies'")
	return []*Table{t}
}

// copierThroughput drives the service with back-to-back tasks of one
// size and measures aggregate copy throughput. repetition selects the
// fraction of submissions reusing the same buffer pair (ATCache). The
// caller supplies the environment so pooled sweeps (sim.RunJobs) can
// wire each cell to its job's private recorder.
func copierThroughput(env *sim.Env, size units.Bytes, tasks int, repetition float64, cfg core.Config) float64 {
	pm := mem.NewPhysMem(64 << 20)
	svc := core.NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	client := svc.NewClient("bench", as, as, nil)

	// Buffer pool: the "no repetition" series cycles through enough
	// pairs that the ATCache never hits; the 75% series reuses one
	// hot pair three times out of four.
	nPairs := 16
	mkpair := func() (mem.VA, mem.VA) {
		src := as.MMap(size, mem.PermRead|mem.PermWrite, "s")
		dst := as.MMap(size, mem.PermRead|mem.PermWrite, "d")
		if _, err := as.Populate(src, size, true); err != nil {
			panic(err)
		}
		if _, err := as.Populate(dst, size, true); err != nil {
			panic(err)
		}
		return src, dst
	}
	type pair struct{ src, dst mem.VA }
	pool := make([]pair, nPairs)
	for i := range pool {
		s, d := mkpair()
		pool[i] = pair{s, d}
	}
	hot := pool[0]

	var start, end sim.Time
	done := 0
	allDone := sim.NewSignal("bench-done")
	env.Go("driver", func(p *sim.Proc) {
		ctx := benchCtx{p}
		start = p.Now()
		cold := 1
		for i := 0; i < tasks; i++ {
			pr := hot
			if repetition == 0 || float64(i%4)/4.0 >= repetition {
				pr = pool[cold%nPairs]
				cold++
			}
			task := &core.Task{Src: pr.src, Dst: pr.dst, SrcAS: as, DstAS: as, Len: size,
				Handler: &core.Handler{Kernel: true, Fn: func() {
					done++
					if done == tasks {
						end = p.Env().Now()
						allDone.Broadcast(p.Env())
					}
				}}}
			ctx.Exec(cycles.SubmitTask)
			for !client.SubmitCopy(task, false) {
				ctx.Exec(cycles.CsyncPoll)
			}
		}
		// Stop the world as soon as the last task lands.
		if done < tasks {
			allDone.Wait(p)
		}
		svc.Stop()
	})
	env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(benchCtx{p}, 0) })
	if err := env.Run(10_000_000_000); err != nil {
		if _, ok := err.(*sim.DeadlockError); !ok {
			panic(err)
		}
	}
	if end <= start {
		return 0
	}
	return float64(size) * float64(tasks) / float64(end-start)
}

// benchCtx adapts a raw sim proc.
type benchCtx struct{ p *sim.Proc }

func (c benchCtx) Exec(d sim.Time)         { c.p.Wait(d) }
func (c benchCtx) Block(s *sim.Signal)     { s.Wait(c.p) }
func (c benchCtx) SpinUntil(s *sim.Signal) { s.Wait(c.p) }
func (c benchCtx) Now() sim.Time           { return c.p.Now() }
func (c benchCtx) Env() *sim.Env           { return c.p.Env() }
func (c benchCtx) BlockTimeout(s *sim.Signal, d sim.Time) bool {
	return s.WaitTimeout(c.p, d)
}

// runFig9 reports Copier's copy throughput against the raw units,
// with and without buffer repetition (ATCache) and a dispatcher
// ablation.
func runFig9(s Scale) []*Table {
	tasks := 40
	if s == Full {
		tasks = 200
	}
	t := &Table{ID: "fig9", Title: "Copy throughput through the service (bytes/cycle); baselines replace the copy method per §6.1.1",
		Columns: []string{"size", "Copier", "Copier(75% rep)", "AVX-only", "ERMS", "no ATCache", "vs ERMS", "vs AVX"}}
	sizes := []units.Bytes{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	if s == Full {
		sizes = []units.Bytes{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	full := core.DefaultConfig()
	noDMA := core.DefaultConfig()
	noDMA.EnableDMA = false
	erms := core.DefaultConfig()
	erms.EnableDMA = false
	erms.UseERMSEngine = true
	noATC := core.DefaultConfig()
	noATC.EnableATCache = false
	// Every (size, variant) cell is an independent simulation; the
	// pool runs them on parWorkers host threads and replays their
	// recordings in index order, so output bytes match a serial run.
	variants := []struct {
		rep float64
		cfg core.Config
	}{{0, full}, {0.75, full}, {0, noDMA}, {0, erms}, {0, noATC}}
	vals := make([]float64, len(sizes)*len(variants))
	sim.RunJobs(len(vals), parWorkers, func(jc *sim.JobCtx) {
		i := jc.Index()
		v := variants[i%len(variants)]
		vals[i] = copierThroughput(jc.NewEnv(), sizes[i/len(variants)], tasks, v.rep, v.cfg)
	})
	for si, n := range sizes {
		row := vals[si*len(variants) : (si+1)*len(variants)]
		fullV, repV, avxV, ermsV, noATCV := row[0], row[1], row[2], row[3], row[4]
		t.AddRow(kb(int(n)),
			fmt.Sprintf("%.2f", fullV),
			fmt.Sprintf("%.2f", repV),
			fmt.Sprintf("%.2f", avxV),
			fmt.Sprintf("%.2f", ermsV),
			fmt.Sprintf("%.2f", noATCV),
			pct(fullV, ermsV), pct(fullV, avxV))
	}
	t.Note("paper: Copier +158%% over ERMS (+55%% at 4KB) / +38%% over AVX2 (+33%% at 4KB); ATCache adds 2-11%%")
	t.Note("full-stack smoke (16KB recv-style copy via syscall boundary): %s", fig9FullStack())
	return []*Table{t}
}

// fig9FullStack routes one small copy through the syscall boundary on
// the kernel substrate and verifies the bytes land: a smoke check that
// the service measured above behaves the same when driven through the
// integrated path (scheduler, trap barriers, kernel-mode queues). It
// also means a fig9 trace records events from all four layers — sim,
// core, hw and kernel. One 16KB task: negligible against the sweep.
func fig9FullStack() string {
	const n = 16 << 10
	m := kernel.NewMachine(kernel.Config{Cores: 2, MemBytes: 64 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 1)
	p := m.NewProcess("fig9")
	attach := m.AttachCopier(p)

	kbuf := m.KernelAS.MMap(n, mem.PermRead|mem.PermWrite, "kbuf")
	if _, err := m.KernelAS.Populate(kbuf, n, true); err != nil {
		return err.Error()
	}
	pat := make([]byte, n)
	for i := range pat {
		pat[i] = byte(i * 7)
	}
	if err := m.KernelAS.WriteAt(kbuf, pat); err != nil {
		return err.Error()
	}
	u := p.AS.MMap(n, mem.PermRead|mem.PermWrite, "ubuf")
	if _, err := p.AS.Populate(u, n, true); err != nil {
		return err.Error()
	}

	var ferr error
	th := m.Spawn(p, "recv", func(t *kernel.Thread) {
		lib := attach.Lib
		desc := core.NewDescriptor(u, n, core.DefaultSegSize)
		t.Syscall("recv", func() {
			ferr = lib.AmemcpyOpts(t, u, kbuf, n, libcopier.Opts{
				KMode: true, Desc: desc, SrcAS: m.KernelAS, DstAS: p.AS,
			})
		})
		if ferr == nil {
			ferr = lib.CsyncDesc(t, desc, 0, n)
		}
	})
	if err := m.RunApps(th); err != nil {
		return err.Error()
	}
	if ferr != nil {
		return ferr.Error()
	}
	got := make([]byte, n)
	if err := p.AS.ReadAt(u, got); err != nil {
		return err.Error()
	}
	if !bytes.Equal(got, pat) {
		return "data mismatch"
	}
	return "ok"
}

// syscallLatency measures one send or recv syscall under a mode.
func syscallLatency(size units.Bytes, recv bool, mode string) sim.Time {
	m := kernel.NewMachine(kernel.Config{Cores: 4, MemBytes: 128 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 3)
	peer := m.NewProcess("peer")
	app := m.NewProcess("app")
	useCopier := mode == "copier" || mode == "copier+batch"
	var attach *kernel.CopierAttachment
	if useCopier {
		attach = m.AttachCopier(app)
	}
	ps, as := m.Net().SocketPair("peer", "app")
	pbuf := mustBufIn(peer, size)
	abuf := mustBufIn(app, size)

	var lat sim.Time
	const iters = 12
	const warm = 3
	switch {
	case recv:
		// Pre-queue messages so recv measures the syscall, not the
		// wait.
		feeder := m.Spawn(peer, "feeder", func(t *kernel.Thread) {
			for i := 0; i < iters; i++ {
				if err := ps.Send(t, pbuf, size); err != nil {
					return
				}
			}
		})
		app0 := m.Spawn(app, "app", func(t *kernel.Thread) {
			ub := baseline.NewUB(m)
			var uring *baseline.IOUring
			if mode == "io_uring" || mode == "io_uring-batch" || mode == "copier+batch" {
				uring = baseline.NewIOUring(m, useCopier)
				defer uring.Stop()
			}
			var total sim.Time
			for i := 0; i < iters; i++ {
				for as.Pending() == 0 {
					t.Exec(500)
				}
				start := t.Now()
				switch mode {
				case "baseline", "zero-copy":
					if _, err := as.Recv(t, abuf, size); err != nil {
						panic(err)
					}
				case "UB":
					if _, err := ub.RecvNT(t, as, abuf, size); err != nil {
						panic(err)
					}
				case "io_uring":
					sqe := &baseline.SQE{Sock: as, Proc: app, Buf: abuf, Len: size}
					uring.Submit(t, sqe)
					uring.WaitAll(t, sqe)
				case "io_uring-batch", "copier+batch":
					// Batch of 4 recvs amortizing submission/reap.
					var sqes []*baseline.SQE
					for b := 0; b < 4 && i < iters; b++ {
						sqes = append(sqes, &baseline.SQE{Sock: as, Proc: app, Buf: abuf, Len: size})
						if b > 0 {
							i++
						}
					}
					uring.Submit(t, sqes...)
					uring.WaitAll(t, sqes...)
					if mode == "copier+batch" {
						if err := attach.Lib.Csync(t, abuf, size); err != nil {
							panic(err)
						}
					}
					if i >= warm {
						total += (t.Now() - start) / sim.Time(len(sqes))
					}
					continue
				case "copier":
					if _, err := as.RecvCopier(t, abuf, size); err != nil {
						panic(err)
					}
					// The app syncs before first use; include it so
					// the comparison is end-to-end honest.
					if err := attach.Lib.Csync(t, abuf, size); err != nil {
						panic(err)
					}
				}
				if i >= warm {
					total += t.Now() - start
				}
			}
			lat = total / (iters - warm)
		})
		if err := m.RunApps(feeder, app0); err != nil {
			panic(err)
		}
	default: // send
		app0 := m.Spawn(app, "app", func(t *kernel.Thread) {
			ub := baseline.NewUB(m)
			var uring *baseline.IOUring
			if mode == "io_uring" || mode == "io_uring-batch" || mode == "copier+batch" {
				uring = baseline.NewIOUring(m, useCopier)
				defer uring.Stop()
			}
			var total sim.Time
			for i := 0; i < iters; i++ {
				start := t.Now()
				switch mode {
				case "baseline":
					if err := as.Send(t, abuf, size); err != nil {
						panic(err)
					}
				case "UB":
					if err := ub.SendNT(t, as, abuf, size); err != nil {
						panic(err)
					}
				case "zero-copy":
					_, err := as.SendZeroCopy(t, abuf, size)
					if err != nil {
						panic(err)
					}
					// Ownership management: poll the error queue for
					// the completion notification (§2.2). With app
					// pacing the buffer is free again before reuse,
					// so the reap syscall is the recurring cost.
					t.Exec(cycles.SyscallTrap + cycles.SyscallReturn)
				case "io_uring", "io_uring-batch", "copier+batch":
					count := 1
					if mode != "io_uring" {
						count = 4
					}
					var sqes []*baseline.SQE
					for b := 0; b < count; b++ {
						sqes = append(sqes, &baseline.SQE{Send: true, Sock: as, Proc: app, Buf: abuf, Len: size})
					}
					i += count - 1
					uring.Submit(t, sqes...)
					uring.WaitAll(t, sqes...)
					if i >= warm {
						total += (t.Now() - start) / sim.Time(count)
					}
					continue
				case "copier":
					if err := as.SendCopier(t, abuf, size); err != nil {
						panic(err)
					}
				}
				if i >= warm {
					total += t.Now() - start
				}
				t.Exec(20_000) // app pacing
			}
			lat = total / (iters - warm)
		})
		drain := m.Spawn(peer, "drain", func(t *kernel.Thread) {
			for i := 0; i < iters; i++ {
				if _, err := ps.Recv(t, pbuf, size); err != nil {
					return
				}
			}
		})
		if err := m.RunApps(app0, drain); err != nil {
			panic(err)
		}
	}
	return lat
}

// runFig10 reports send()/recv() latencies across optimization
// systems.
func runFig10(s Scale) []*Table {
	sizes := []units.Bytes{1 << 10, 16 << 10}
	if s == Full {
		sizes = []units.Bytes{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	}
	var tables []*Table
	for _, recv := range []bool{false, true} {
		name, id := "send()", "fig10-send"
		modes := []string{"baseline", "UB", "io_uring", "io_uring-batch", "zero-copy", "copier", "copier+batch"}
		if recv {
			name, id = "recv()", "fig10-recv"
			// Zero-copy recv is not evaluated (needs special NICs —
			// Fig. 10 note).
			modes = []string{"baseline", "UB", "io_uring", "io_uring-batch", "copier", "copier+batch"}
		}
		t := &Table{ID: id, Title: "Average " + name + " latency (cycles)",
			Columns: append([]string{"size"}, modes...)}
		for _, n := range sizes {
			row := []string{kb(int(n))}
			var base sim.Time
			for _, mode := range modes {
				l := syscallLatency(n, recv, mode)
				if mode == "baseline" {
					base = l
					row = append(row, fmt.Sprintf("%d", l))
				} else {
					row = append(row, fmt.Sprintf("%d (%s)", l, pct(float64(l), float64(base))))
				}
			}
			t.AddRow(row...)
		}
		t.Note("paper: Copier -7–37%% send / -16–92%% recv; zero-copy send wins only >=32KB")
		tables = append(tables, t)
	}
	return tables
}

// runBinder reproduces the Binder IPC latency experiment: n strings of
// 1KB per transaction.
func runBinder(s Scale) []*Table {
	counts := []int{10, 50, 200}
	if s == Full {
		counts = []int{10, 50, 100, 200, 400, 800}
	}
	t := &Table{ID: "binder", Title: "Binder IPC end-to-end latency (cycles/transaction)",
		Columns: []string{"strings", "baseline", "Copier", "reduction"}}
	for _, n := range counts {
		base := binderLatency(n, false)
		cop := binderLatency(n, true)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", base), fmt.Sprintf("%d", cop),
			pct(float64(cop), float64(base)))
	}
	t.Note("paper: 9.6%%–35.5%% reduction for n in 10..800")
	return []*Table{t}
}

func binderLatency(nStrings int, copier bool) sim.Time {
	const strLen = 1024
	m := kernel.NewMachine(kernel.Config{Cores: 3, MemBytes: 128 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 2)
	client := m.NewProcess("client")
	server := m.NewProcess("server")
	m.AttachCopier(client)
	srvAttach := m.AttachCopier(server)
	b := m.NewBinder()
	conn := b.Connect(server, 2<<20)
	msgLen := units.Bytes(nStrings) * (4 + strLen)
	data := mustBufIn(client, msgLen)
	// Marshal.
	payload := make([]byte, strLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	off := units.Bytes(0)
	for i := 0; i < nStrings; i++ {
		off = kernel.WriteString(client.AS, data, off, payload)
	}
	reply := mustBufIn(client, 64)
	const iters = 6
	var lat sim.Time
	srv := m.Spawn(server, "server", func(t *kernel.Thread) {
		rbuf := mustBufIn(server, 64)
		out := make([]byte, strLen)
		for it := 0; it < iters; it++ {
			view, n := conn.WaitTransaction(t)
			parcel := conn.OpenParcel(srvAttach.Lib, view, n, copier)
			for i := 0; i < nStrings; i++ {
				parcel.ReadString(t, out)
			}
			conn.Reply(t, rbuf, 64)
		}
	})
	cli := m.Spawn(client, "client", func(t *kernel.Thread) {
		start := t.Now()
		for it := 0; it < iters; it++ {
			conn.Transact(t, data, msgLen, reply, copier)
		}
		lat = (t.Now() - start) / iters
	})
	if err := m.RunApps(srv, cli); err != nil {
		panic(err)
	}
	return lat
}

// runCoW reproduces the CoW fault-handling experiment.
func runCoW(s Scale) []*Table {
	t := &Table{ID: "cow", Title: "CoW fault blocking time (cycles)",
		Columns: []string{"region", "baseline", "Copier", "reduction"}}
	for _, pages := range []int{1, 512} {
		base := cowBlocked(pages, false)
		cop := cowBlocked(pages, true)
		t.AddRow(kb(pages*mem.PageSize), fmt.Sprintf("%d", base), fmt.Sprintf("%d", cop),
			pct(float64(cop), float64(base)))
	}
	t.Note("paper: -71.8%% for 2MB pages, -8.0%% for 4KB pages")
	return []*Table{t}
}

func cowBlocked(pages int, copier bool) sim.Time {
	m := kernel.NewMachine(kernel.Config{Cores: 3, MemBytes: 128 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 2)
	p := m.NewProcess("app")
	m.AttachCopier(p)
	length := units.Bytes(pages) * mem.PageSize
	region := mustBufIn(p, length)
	m.ForkProcess(p, "child")
	var blocked sim.Time
	th := m.Spawn(p, "faulter", func(t *kernel.Thread) {
		var res kernel.CoWResult
		var err error
		if copier {
			res, err = t.HandleCoWFaultCopier(p.AS, region, length)
		} else {
			res, err = t.HandleCoWFault(p.AS, region, length)
		}
		if err != nil {
			panic(err)
		}
		blocked = res.Blocked
	})
	if err := m.RunApps(th); err != nil {
		panic(err)
	}
	return blocked
}

// runScope reports the §4.6 break-even sizes from the cost model.
func runScope(s Scale) []*Table {
	t := &Table{ID: "scope", Title: "Async vs sync break-even (cost model)",
		Columns: []string{"context", "async overhead", "break-even size", "paper"}}
	userOver := cycles.SubmitTask + cycles.DescriptorAlloc + cycles.CsyncCheck
	kernOver := cycles.SubmitTask + cycles.SubmitBarrier + cycles.CsyncCheck
	breakeven := func(u cycles.Unit, over sim.Time) int {
		for n := units.Bytes(64); n <= 1<<20; n += 64 {
			if cycles.SyncCopyCost(u, n) >= over {
				return int(n)
			}
		}
		return -1
	}
	t.AddRow("userspace (vs AVX2)", fmt.Sprintf("%d", userOver), kb(breakeven(cycles.UnitAVX, sim.Time(userOver))), ">=0.5KB")
	t.AddRow("kernel (vs ERMS)", fmt.Sprintf("%d", kernOver), kb(breakeven(cycles.UnitERMS, sim.Time(kernOver))), ">=0.3KB")
	t.Note("with sufficient Copy-Use window; hardware benefits extend to large copies without windows")
	return []*Table{t}
}

// runFig3 reports Copy-Use windows against copy time at increasing
// byte positions, derived from the calibrated per-byte use costs.
func runFig3(s Scale) []*Table {
	t := &Table{ID: "fig3", Title: "Copy-Use window vs copy time at byte position (16KB operations, cycles)",
		Columns: []string{"position", "copy time", "protobuf", "AES dec.", "deflate", "redis parse", "window/copy (min)"}}
	type rate struct {
		name     string
		init     sim.Time
		num, den int64
	}
	rates := []rate{
		{"protobuf", 600, cycles.DeserializeByteNum, cycles.DeserializeByteDen},
		{"aes", 400, cycles.DecryptByteNum, cycles.DecryptByteDen},
		{"deflate", 200, cycles.CompressByteNum, cycles.CompressByteDen},
		{"redis", 250, cycles.ParseByteNum, cycles.ParseByteDen},
	}
	for _, pos := range []units.Bytes{1 << 10, 4 << 10, 8 << 10, 16 << 10} {
		copyT := cycles.SyncCopyCost(cycles.UnitERMS, pos)
		row := []string{kb(int(pos)), fmt.Sprintf("%d", copyT)}
		minRatio := 1e18
		for _, r := range rates {
			// The window at position x is the work done before the
			// byte at x is touched: init + use-rate * x.
			w := r.init + cycles.Mul(pos, r.num, r.den)
			row = append(row, fmt.Sprintf("%d", w))
			if ratio := float64(w) / float64(copyT); ratio < minRatio {
				minRatio = ratio
			}
		}
		row = append(row, fmt.Sprintf("%.1fx", minRatio))
		t.AddRow(row...)
	}
	t.Note("paper: windows are 'usually as high as 2-10x the time required for copy'")
	return []*Table{t}
}

func mustBufIn(p *kernel.Process, n units.Bytes) mem.VA {
	va := p.AS.MMap(n, mem.PermRead|mem.PermWrite, "buf")
	if _, err := p.AS.Populate(va, n, true); err != nil {
		panic(err)
	}
	return va
}
