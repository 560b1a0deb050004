package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/fault"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// procCtx is the benchmark's core.Ctx: a service thread that charges
// CPU time by sleeping its sim process, with no kernel scheduler
// between the service and its core.
type procCtx struct{ p *sim.Proc }

func (c procCtx) Exec(d sim.Time)         { c.p.Wait(d) }
func (c procCtx) Block(s *sim.Signal)     { s.Wait(c.p) }
func (c procCtx) SpinUntil(s *sim.Signal) { s.Wait(c.p) }
func (c procCtx) Now() sim.Time           { return c.p.Now() }
func (c procCtx) Env() *sim.Env           { return c.p.Env() }
func (c procCtx) BlockTimeout(s *sim.Signal, d sim.Time) bool {
	return s.WaitTimeout(c.p, d)
}

const (
	us = cycles.CyclesPerMicrosecond
	// slice is the virtual time one Env.Run call covers. Between
	// slices a traced round drains the event recorder, so one slice's
	// events must fit simRing.
	slice = 100 * us
	// simRing is the recorder ring of a traced simulation: far more
	// than one slice emits at the heaviest load here.
	simRing = 1 << 16
	// pollGap is how often a submitter re-checks outstanding tasks.
	pollGap = 5 * us
	// sloUs is the p99 latency limit of the fleet-numa load ladder.
	sloUs = 100
)

func usOf(c int64) float64 { return cycles.ToMicroseconds(sim.Time(c)) }

// runSliced runs env one slice at a time until its event heap drains,
// timing the host cost of Env.Run and draining tr after every slice.
// A simulation still running at giveUp has wedged.
func runSliced(env *sim.Env, tr *tracer, giveUp sim.Time, out *roundOut) error {
	for {
		until := env.Now() + slice
		t0 := time.Now()
		err := env.Run(until)
		out.host.add("run_ns", float64(time.Since(t0).Nanoseconds()))
		tr.drain()
		var dl *sim.DeadlockError
		if err != nil && !errors.As(err, &dl) {
			return err
		}
		if err != nil || env.Now() < until {
			out.host.add("virt_us", usOf(int64(env.Now())))
			return nil
		}
		if env.Now() > giveUp {
			return fmt.Errorf("simulation still running at %.0f virtual us", usOf(int64(env.Now())))
		}
	}
}

// simClient is one simulated submitter: a shard core on its home node
// and a source/destination pair sized for the largest copy, the source
// filled with seeded bytes.
type simClient struct {
	c        *core.Client
	as       *mem.AddrSpace
	src, dst mem.VA
	core     int
	// served is the longest copy completed into dst, the prefix the
	// output check compares.
	served units.Bytes
}

// setupClock splits one set-up's host time across the layers it
// calls: simulated memory, the copy service, and input generation.
type setupClock struct{ mem, core, input time.Duration }

func (s *setupClock) time(d *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*d += time.Since(t0)
	return err
}

func (s *setupClock) record(out *roundOut) {
	out.setups = append(out.setups, (s.mem + s.core + s.input).Seconds())
	out.host.obs("setup.mem_s", s.mem.Seconds())
	out.host.obs("setup.core_s", s.core.Seconds())
	out.host.obs("setup.input_s", s.input.Seconds())
}

// newBuffers maps and populates a source/destination pair in as
// (memory) and fills the source (input).
func newBuffers(sc *setupClock, as *mem.AddrSpace, size units.Bytes, r *rng) (simClient, error) {
	c := simClient{as: as}
	err := sc.time(&sc.mem, func() error {
		c.src = c.as.MMap(size, mem.PermRead|mem.PermWrite, "src")
		c.dst = c.as.MMap(size, mem.PermRead|mem.PermWrite, "dst")
		if _, err := c.as.Populate(c.src, size, true); err != nil {
			return err
		}
		_, err := c.as.Populate(c.dst, size, true)
		return err
	})
	if err != nil {
		return c, err
	}
	err = sc.time(&sc.input, func() error {
		b := make([]byte, size)
		r.fill(b)
		return c.as.WriteAt(c.src, b)
	})
	return c, err
}

// checkCopied compares each client's destination prefix with its
// source: every completed copy must have landed byte for byte.
func checkCopied(clients []simClient) error {
	for i := range clients {
		c := &clients[i]
		if c.served == 0 {
			continue
		}
		src, dst := make([]byte, c.served), make([]byte, c.served)
		if err := c.as.ReadAt(c.src, src); err != nil {
			return err
		}
		if err := c.as.ReadAt(c.dst, dst); err != nil {
			return err
		}
		if !bytes.Equal(src, dst) {
			return fmt.Errorf("client %d: destination differs from source within the %d completed bytes", i, c.served)
		}
	}
	return nil
}

// openLoop is one open-loop simulation on a 4-node×2-core NUMA machine
// running the sharded service: a schedule of Poisson arrivals is drawn
// before the clock starts and submitted on time whatever the service's
// state, so queueing shows up as latency, timed from each arrival's
// scheduled instant.
type openLoop struct {
	clients, arrivals int
	// load multiplies the offered rate of one arrival per 20,000
	// cycles (about 6.9 us).
	load int
	// sizes are the copy sizes, each making up its weight's share of
	// the arrivals.
	sizes   []units.Bytes
	weights []int
	// worst selects the worst-day shape: a 6× overload window over
	// the middle third, a pinned permanent engine death at its start,
	// transient DMA faults with a forced burst, 60 us deadlines, and
	// two share classes. What it sheds is shed at the deadline: at this
	// load neither chaosfleet's MaxPending of 48 nor its brownout
	// controller fired, so MaxPending keeps its default (the ring's
	// capacity) and no brownout controller is configured.
	worst bool
}

type arrival struct {
	at     sim.Time
	client int
	size   units.Bytes
}

func (o openLoop) schedule(r *rng) []arrival {
	gaps := r.poissonGaps(o.arrivals, 20_000/float64(o.load))
	ids := make([]int, o.clients)
	for i := range ids {
		ids[i] = i
	}
	clients := evenly(r, o.arrivals, ids)
	sizes := stratified(r, o.arrivals, o.sizes, o.weights)
	arr := make([]arrival, o.arrivals)
	var at sim.Time
	for i := range arr {
		g := sim.Time(gaps[i])
		if o.worst && i >= o.arrivals/3 && i < 2*o.arrivals/3 {
			g = max(g/6, 1)
		}
		at += g
		arr[i] = arrival{at: at, client: clients[i], size: sizes[i]}
	}
	return arr
}

func (o openLoop) config(tp *topo.Topology) core.Config {
	cfg := core.DefaultConfig()
	cfg.Topo = tp
	if o.worst {
		cfg.QuarantineProbe = 50 * us
	}
	return cfg
}

// injector is the worst day's fault plan: 2% transient DMA failures,
// a forced run of failures long enough to quarantine engines, and a
// permanent death pinned on the descriptor that opens the overload.
func (o openLoop) injector(r *rng) *fault.Injector {
	inj := fault.New(r.next()).SetRates(fault.SiteDMA, fault.Rates{FailPpm: 20_000})
	for i := 120; i < 220; i++ {
		inj.AddRule(fault.Rule{Site: fault.SiteDMA, Nth: uint64(i), Outcome: fault.Outcome{Fail: true}})
	}
	inj.AddRule(fault.Rule{Site: fault.SiteDMA, Nth: uint64(o.arrivals / 3), Outcome: fault.Outcome{Perm: true}})
	return inj
}

func (o openLoop) round(seed uint64, round int, tr *tracer) (*roundOut, error) {
	out := &roundOut{attempted: o.arrivals}
	if err := tr.begin(); err != nil {
		return nil, err
	}
	r := newRNG(seed, fmt.Sprintf("open/%d/%t", o.load, o.worst), round)
	var sc setupClock
	tp := topo.NUMA(4, 2, 64<<20)
	nn := tp.Nodes()
	var pm *mem.PhysMem
	if err := sc.time(&sc.mem, func() error {
		pm = mem.NewPhysMem(tp.TotalMem())
		return pm.ConfigureNodes(nn)
	}); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	var svc *core.Service
	var prod, batch *core.CGroupAccount
	sc.time(&sc.core, func() error {
		svc = core.NewService(env, pm, o.config(tp))
		if o.worst {
			svc.SetFaultInjector(o.injector(newRNG(seed, "faults", round)))
			// The odd clients form a batch class with a tenth of the
			// other clients' fair-share weight.
			prod, batch = svc.Group("prod", 100), svc.Group("batch", 10)
		}
		return nil
	})
	maxSize := units.Bytes(0)
	for _, s := range o.sizes {
		maxSize = max(maxSize, s)
	}
	clients := make([]simClient, o.clients)
	for i := range clients {
		node := i % nn
		var as *mem.AddrSpace
		sc.time(&sc.mem, func() error {
			as = mem.NewAddrSpace(pm)
			as.SetHomeNode(node)
			return nil
		})
		c, err := newBuffers(&sc, as, maxSize, r)
		if err != nil {
			return nil, err
		}
		sc.time(&sc.core, func() error {
			g := prod
			if i%2 == 1 {
				g = batch
			}
			c.c = svc.NewClientOn(fmt.Sprintf("c%d", i), c.as, c.as, g, node)
			c.c.EnableShards(tp.CoresPerNode())
			c.core = (i / nn) % tp.CoresPerNode()
			return nil
		})
		clients[i] = c
	}

	var arr []arrival
	var tasks []*core.Task
	lat := make([]float64, o.arrivals)
	served := make([]bool, o.arrivals)
	var lastDone sim.Time
	sc.time(&sc.input, func() error {
		arr = o.schedule(r)
		tasks = make([]*core.Task, len(arr))
		for i, a := range arr {
			c := &clients[a.client]
			i, at := i, a.at
			t := &core.Task{
				Src: c.src, Dst: c.dst, SrcAS: c.as, DstAS: c.as, Len: a.size,
				Desc: core.NewDescriptor(c.dst, a.size, core.DefaultSegSize),
			}
			t.Handler = &core.Handler{Kernel: true, Fn: func() {
				lat[i] = usOf(int64(env.Now() - at))
				served[i] = true
				lastDone = env.Now()
			}}
			if o.worst {
				t.Deadline = at + 60*us
			}
			tasks[i] = t
		}
		return nil
	})
	sc.record(out)

	tr.attach(env, simRing)
	accepted := make([]bool, len(arr))
	var late sim.Time
	submitted, monitorStop := false, false
	env.Go("submitter", func(p *sim.Proc) {
		for i, a := range arr {
			if a.at > p.Now() {
				p.Wait(a.at - p.Now())
			}
			late = max(late, p.Now()-a.at)
			c := &clients[a.client]
			if tr != nil {
				t0 := time.Now()
				accepted[i] = c.c.SubmitCopyOn(c.core, tasks[i])
				out.host.obs("core.submit_ns", float64(time.Since(t0).Nanoseconds()))
			} else {
				accepted[i] = c.c.SubmitCopyOn(c.core, tasks[i])
			}
		}
		// Completion handlers run only for copies that succeeded; shed
		// and failed tasks end with a definite error, so the submitter
		// waits on task states rather than counting handlers.
		for pending := true; pending; {
			pending = false
			for i, t := range tasks {
				if accepted[i] && !t.Executed() && !t.Aborted() {
					pending = true
					break
				}
			}
			if pending {
				p.Wait(pollGap)
			}
		}
		submitted, monitorStop = true, true
		svc.Stop()
	})
	var killAt, recoveredAt sim.Time
	if o.worst {
		// The monitor samples the service backlog: the first sample
		// after the engine death with the backlog under 256 KB ends
		// the degradation.
		env.Go("monitor", func(p *sim.Proc) {
			for !monitorStop {
				for _, d := range svc.DMAs() {
					if killAt == 0 && d.Dead() {
						killAt = d.DiedAt()
					}
				}
				if killAt > 0 && recoveredAt == 0 && p.Now() > killAt && svc.Backlog() < 256<<10 {
					recoveredAt = p.Now()
				}
				p.Wait(pollGap)
			}
		})
	}
	for slot := 0; slot < nn; slot++ {
		slot := slot
		env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(procCtx{p}, slot) })
	}
	t0 := time.Now()
	err := runSliced(env, tr, arr[len(arr)-1].at+1_000_000*us, out)
	host := time.Since(t0)
	tr.end()
	if err != nil {
		return nil, err
	}
	out.opsPerSec = float64(o.arrivals) / host.Seconds()

	// Output checks, then the modeled evidence.
	if !submitted {
		return nil, errors.New("submitter did not finish")
	}
	if late != 0 {
		return nil, fmt.Errorf("generator ran %d cycles late", late)
	}
	lost, servedBytes := 0, int64(0)
	for i, t := range tasks {
		switch {
		case !accepted[i]:
			// Refused at a full submission ring: not served.
		case !t.Executed() && !t.Aborted():
			lost++
		case served[i]:
			if t.Err() != nil {
				return nil, fmt.Errorf("task %d ran its completion handler but failed: %v", i, t.Err())
			}
			c := &clients[arr[i].client]
			c.served = max(c.served, t.Len)
			servedBytes += int64(t.Len)
			out.model.obs("lat_us", lat[i])
			if i >= len(arr)*9/10 {
				out.model.obs("tail_us", lat[i])
			}
		}
	}
	if lost != 0 {
		return nil, fmt.Errorf("%d accepted tasks lost", lost)
	}
	for i := range clients {
		if leak := clients[i].as.AuditLeaks(); !leak.Clean() {
			return nil, fmt.Errorf("client %d leaked %d pins", i, leak.PinCount)
		}
	}
	if err := checkCopied(clients); err != nil {
		return nil, err
	}
	span := lastDone - arr[0].at
	m := &out.model
	m.add("attempted", float64(o.arrivals))
	m.add("served", float64(len(m.s["lat_us"])))
	m.add("bytes", float64(servedBytes))
	m.add("clock_s", cycles.ToNanoseconds(span)/1e9)
	addServiceStats(m, svc, span)
	if o.worst && killAt > 0 {
		end := recoveredAt
		if end == 0 {
			end = lastDone
		}
		m.obs("core.recover_us", usOf(int64(end-killAt)))
	}
	return out, nil
}

// addServiceStats records the service counters behind the core and hw
// per-layer metrics.
func addServiceStats(m *acc, svc *core.Service, span sim.Time) {
	addCoreStats(m, svc.Stats)
	if span > 0 {
		for _, d := range svc.DMAs() {
			m.obs("hw.dma_util", float64(d.BusyCycles)/float64(span))
		}
	}
}

func addCoreStats(m *acc, st core.Stats) {
	m.add("core.dma_bytes", float64(st.DMABytes))
	m.add("core.absorbed_bytes", float64(st.AbsorbedBytes))
	m.add("core.copied_bytes", float64(st.DMABytes+st.AVXBytes+st.AbsorbedBytes))
	m.add("core.poll_sweeps", float64(st.PollSweeps))
	m.add("core.remote_dma_bytes", float64(st.RemoteDMABytes))
	m.add("core.shed_deadline", float64(st.DeadlineShed))
	m.add("core.resteered_chunks", float64(st.ResteeredChunks))
	m.add("core.quarantines", float64(st.Quarantines))
}

// closedLoop is steady-flat: the flat single-engine service and one
// client that submits a batch of tasks, waits for all of them, and
// submits the next. Latency runs from the batch's submission to each
// task's completion.
type closedLoop struct {
	batches, batch int
	sizes          []units.Bytes
}

func (c closedLoop) round(seed uint64, round int, tr *tracer) (*roundOut, error) {
	out := &roundOut{attempted: c.batches * c.batch}
	if err := tr.begin(); err != nil {
		return nil, err
	}
	r := newRNG(seed, "closed", round)
	var sc setupClock
	var pm *mem.PhysMem
	sc.time(&sc.mem, func() error { pm = mem.NewPhysMem(64 << 20); return nil })
	env := sim.NewEnv()
	var svc *core.Service
	sc.time(&sc.core, func() error { svc = core.NewService(env, pm, core.DefaultConfig()); return nil })
	maxSize := units.Bytes(0)
	for _, s := range c.sizes {
		maxSize = max(maxSize, s)
	}
	var as *mem.AddrSpace
	sc.time(&sc.mem, func() error { as = mem.NewAddrSpace(pm); return nil })
	bufs := make([]simClient, c.batch)
	for i := range bufs {
		b, err := newBuffers(&sc, as, maxSize, r)
		if err != nil {
			return nil, err
		}
		bufs[i] = b
	}
	var client *core.Client
	sc.time(&sc.core, func() error { client = svc.NewClient("steady", as, as, nil); return nil })
	// Every batch has tasks of its own: the service may still hold a
	// task, to charge its completion and unpin its pages, after the
	// handler that ends the batch has run, so a task is not reused.
	var batches [][]*core.Task
	done, bytesDone := 0, int64(0)
	var batchAt, lastDone sim.Time
	doneSig := sim.NewSignal("batch-done")
	sc.time(&sc.input, func() error {
		batches = make([][]*core.Task, c.batches)
		for b := range batches {
			sizes := evenly(r, c.batch, c.sizes)
			batches[b] = make([]*core.Task, c.batch)
			for i := range batches[b] {
				t := &core.Task{Src: bufs[i].src, Dst: bufs[i].dst, SrcAS: bufs[i].as, DstAS: bufs[i].as, Len: sizes[i]}
				t.Handler = &core.Handler{Kernel: true, Fn: func() {
					out.model.obs("lat_us", usOf(int64(env.Now()-batchAt)))
					bufs[i].served = max(bufs[i].served, t.Len)
					bytesDone += int64(t.Len)
					lastDone = env.Now()
					done++
					doneSig.Broadcast(env)
				}}
				batches[b][i] = t
			}
		}
		return nil
	})
	sc.record(out)

	tr.attach(env, simRing)
	submitted := false
	env.Go("submitter", func(p *sim.Proc) {
		for _, tasks := range batches {
			batchAt, done = p.Now(), 0
			for _, t := range tasks {
				var ok bool
				if tr != nil {
					t0 := time.Now()
					ok = client.SubmitCopy(t, false)
					out.host.obs("core.submit_ns", float64(time.Since(t0).Nanoseconds()))
				} else {
					ok = client.SubmitCopy(t, false)
				}
				if !ok {
					return // ring full: the check below reports it
				}
			}
			for done < len(tasks) {
				doneSig.Wait(p)
			}
		}
		submitted = true
		svc.Stop()
	})
	env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(procCtx{p}, 0) })
	t0 := time.Now()
	err := runSliced(env, tr, sim.Time(c.batches)*10_000*us, out)
	host := time.Since(t0)
	tr.end()
	if err != nil {
		return nil, err
	}
	if !submitted {
		return nil, errors.New("steady submitter did not finish (submission ring full or a batch never completed)")
	}
	out.opsPerSec = float64(out.attempted) / host.Seconds()
	for b, tasks := range batches {
		for i, t := range tasks {
			if !t.Executed() || t.Err() != nil {
				return nil, fmt.Errorf("batch %d task %d: executed %t, error %v", b, i, t.Executed(), t.Err())
			}
		}
	}
	if leak := as.AuditLeaks(); !leak.Clean() {
		return nil, fmt.Errorf("leaked %d pins", leak.PinCount)
	}
	if err := checkCopied(bufs); err != nil {
		return nil, err
	}
	m := &out.model
	span := lastDone
	m.add("attempted", float64(out.attempted))
	m.add("served", float64(len(m.s["lat_us"])))
	m.add("bytes", float64(bytesDone))
	m.add("clock_s", cycles.ToNanoseconds(span)/1e9)
	addServiceStats(m, svc, span)
	return out, nil
}
