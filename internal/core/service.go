package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"copier/internal/cycles"
	"copier/internal/fault"
	"copier/internal/hw"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// ErrClientDead is recorded on the descriptors of tasks reclaimed by
// client-death teardown, so csync callers sharing the descriptor
// observe the death instead of hanging.
var ErrClientDead = errors.New("core: client died before copy completed")

// PollMode selects how Copier threads wait for work (§4.5.1).
type PollMode int

const (
	// PollNAPI busy-polls for a budget of empty iterations, then
	// sleeps until a doorbell (the default; balances performance and
	// polling overhead).
	PollNAPI PollMode = iota
	// PollScenario sleeps unless a target scenario explicitly
	// activates the service — the smartphone mode (§5.3).
	PollScenario
)

// Service policy values, fixed at the paper's settings.
const (
	// copySlice caps bytes served per scheduling decision (§4.5.3:
	// "administrators can adjust Copier's copy slice").
	copySlice units.Bytes = 256 << 10
	// piggybackThreshold is the task size at/above which i-piggyback
	// engages DMA (§4.3: ">=12KB").
	piggybackThreshold units.Bytes = 12 << 10
	// ePiggybackFuse is the max bytes of adjacent small tasks fused
	// into one e-piggyback round.
	ePiggybackFuse units.Bytes = 24 << 10
	// dmaCandidateMin is the smallest subtask worth a DMA descriptor.
	dmaCandidateMin units.Bytes = 2 << 10

	// retryBackoff is the base re-dispatch delay after a transient
	// engine failure; it doubles per retry (capped at 64x).
	retryBackoff sim.Time = 20 * cycles.CyclesPerMicrosecond
	// retryBudget is the capacity of the global retry token bucket:
	// every granted transient retry consumes a token, and tokens
	// refill at one per retryRefill of virtual time. When the bucket
	// runs dry, further failures become definite errors instead of
	// amplifying overload with a retry storm. Re-steers after a
	// permanent engine death are exempt — denying those would turn
	// hardware loss into task loss.
	retryBudget = 256
	// retryRefill is the virtual time to earn one retry token back.
	retryRefill sim.Time = 5 * cycles.CyclesPerMicrosecond

	// brownoutDwell is the brownout controller's hysteresis dwell on
	// both edges (see Config.BrownoutHigh).
	brownoutDwell sim.Time = 50 * cycles.CyclesPerMicrosecond

	// napiBudget is empty poll sweeps before sleeping: ~100us of busy
	// polling, like io_uring SQPOLL's sq_thread_idle (§4.5.1).
	napiBudget = 5000
	// sleepPeriod bounds a poll-mode sleep (the thread re-checks queues
	// on wake).
	sleepPeriod sim.Time = 100 * cycles.CyclesPerMicrosecond
)

// Config tunes the service. Zero values select defaults. The Enable*
// switches exist for the paper's ablations (Fig. 12-c: async only vs
// +hardware vs +absorption).
type Config struct {
	// QueueLen is the per-ring capacity.
	QueueLen int

	// MaxRetries bounds transient engine failures absorbed per task
	// before the task completes with an error. Zero selects the
	// default (8); NoRetries (or any negative value) disables retries
	// entirely — the first transient failure is final.
	MaxRetries int
	// DMACooldown is how long after a DMA engine fault the dispatcher
	// diverts DMA-eligible work to the CPU engines (graceful
	// degradation). Zero selects the default; negative disables the
	// cooldown window.
	DMACooldown sim.Time

	// MaxPending bounds each client's admitted-but-unexecuted copy
	// tasks: an admission beyond the bound is rejected deterministically
	// with ErrOverload instead of growing the queue without bound.
	// Zero selects QueueLen; negative removes the bound.
	MaxPending int
	// QuarantineProbe is how long a quarantined engine sits out before
	// the steering layer offers it one half-open probe chunk; a clean
	// completion readmits the engine, a failure re-arms the clock.
	QuarantineProbe sim.Time

	// BrownoutHigh is the service-backlog watermark (bytes) for the
	// brownout controller: backlog above it for a full dwell (50 µs)
	// enters brownout (double copy slices and fuse windows,
	// local-node-only steering, lowest-priority admissions shed);
	// backlog below BrownoutHigh/8 for a full dwell exits it. Zero
	// disables the controller (the default — brownout is an operator
	// opt-in).
	BrownoutHigh int64
	// BrownoutShedBelow, when positive, sheds new admissions from
	// clients whose cgroup shares are strictly below it while brownout
	// is active — lowest-priority clients are dropped first.
	BrownoutShedBelow int64

	EnableDMA        bool
	EnableAbsorption bool
	EnableATCache    bool
	// UseERMSEngine replaces the service's AVX2 CPU engine with ERMS
	// — Fig. 9's kernel-method baseline.
	UseERMSEngine bool

	Mode PollMode

	// Auto-scaling (§4.5.1): keep backlog between LowLoad and
	// HighLoad bytes per active thread.
	LowLoad    int64
	HighLoad   int64
	MaxThreads int

	// Topo places the service on a machine topology: one DMA engine
	// per node, thread slot i serving node i%nodes, clients pinned to
	// their node's threads, and NUMA-aware engine steering with
	// distance-scaled costs. A nil topology is the single-node one:
	// the flat machine, which alone auto-scales its thread count
	// (MaxThreads).
	Topo *topo.Topology
}

func (c Config) withDefaults() Config {
	if c.QueueLen == 0 {
		c.QueueLen = 4096
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0 // NoRetries: first transient failure is final
	}
	if c.DMACooldown == 0 {
		c.DMACooldown = 100 * cycles.CyclesPerMicrosecond
	} else if c.DMACooldown < 0 {
		c.DMACooldown = 0
	}
	if c.MaxPending == 0 {
		c.MaxPending = c.QueueLen
	} else if c.MaxPending < 0 {
		c.MaxPending = 0 // unbounded
	}
	if c.QuarantineProbe == 0 {
		c.QuarantineProbe = 200 * cycles.CyclesPerMicrosecond
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 1
	}
	if c.HighLoad == 0 {
		c.HighLoad = 1 << 20
	}
	if c.LowLoad == 0 {
		c.LowLoad = 64 << 10
	}
	return c
}

// NoRetries is the Config.MaxRetries sentinel for "retry nothing":
// the zero value selects the default retry count, so disabling retries
// needs an explicit negative. The same convention holds for the other
// defaulted knobs — a negative DMACooldown or MaxPending selects
// zero/unbounded rather than the default.
const NoRetries = -1

// DefaultConfig returns the full-featured configuration used by the
// end-to-end experiments.
func DefaultConfig() Config {
	return Config{EnableDMA: true, EnableAbsorption: true, EnableATCache: true}
}

// Stats aggregates service counters for the experiment reports.
type Stats struct {
	TasksExecuted   int64
	FailedTasks     int64
	AbortedTasks    int64
	Promotions      int64
	AVXBytes        int64
	DMABytes        int64
	AbsorbedBytes   int64
	ProactiveFaults int64
	PollSweeps      int64
	Sleeps          int64
	LazyExpired     int64

	// Failure-recovery counters.
	DMAFaults     int64 // DMA descriptors that completed with an engine error
	CPUFaults     int64 // CPU copy slices failed by the fault layer
	RetriedChunks int64 // backoff-rescheduled failures (retries granted)
	// FallbackBytes counts bytes diverted from DMA to the CPU engines:
	// whole rounds inside the post-fault cooldown, otherwise only the
	// DMA-assigned chunks no available engine could take.
	FallbackBytes   int64
	ClientTeardowns int64 // dead clients reclaimed
	ReclaimedTasks  int64 // tasks (queued + pending) reclaimed by teardown

	// NUMA steering counters (always zero on the flat machine).
	RemoteSpills   int64 // DMA chunks steered off their destination's node
	RemoteDMABytes int64 // bytes those spilled chunks moved

	// Engine-health counters (the worst-day machinery).
	EngineDeaths    int64 // engines that failed permanently
	Degradations    int64 // Healthy -> Degraded transitions
	Quarantines     int64 // Degraded -> Quarantined transitions
	ProbeRecoveries int64 // quarantined engines readmitted by a clean probe
	ResteeredChunks int64 // chunks re-dispatched after a permanent engine death

	// Admission control and shedding counters.
	OverloadShed    int64 // admissions rejected at the MaxPending bound
	DeadlineShed    int64 // admitted tasks dropped past their SLO deadline
	BrownoutShed    int64 // low-priority admissions rejected during brownout
	RetryDenied     int64 // transient retries denied by the retry budget
	BrownoutEntries int64 // times the brownout controller engaged
}

// Service is the Copier OS service instance.
type Service struct {
	env *sim.Env
	pm  *mem.PhysMem
	// dmas holds one DMA engine per NUMA node (a single engine on the
	// flat machine). Index == node.
	dmas []*hw.DMAChannel
	at   *ATCache
	cfg  Config

	clients []*Client
	nextCID int
	groups  map[string]*CGroupAccount
	// nextTaskID stamps copy tasks with a service-wide ID at
	// submission so trace events correlate across submit/dispatch/
	// complete. IDs start at 1; 0 marks an unstamped task.
	nextTaskID uint64

	// workSig wakes sleeping service threads on submission.
	workSig *sim.Signal
	// activateSig wakes scenario-mode threads on activation.
	activateSig    *sim.Signal
	scenarioActive bool
	sleeping       int

	backlogBytes int64
	// inflightDMA counts outstanding DMA chunk transfers; the service
	// keeps polling (and does not sleep) while any are pending so
	// completions are finalized promptly.
	inflightDMA int

	// inj, when set, is the deterministic fault injector consulted on
	// the CPU dispatch path (the DMA channel holds its own reference).
	inj *fault.Injector
	// dmaAvoidUntil opens after a DMA engine fault: until it passes,
	// DMA-eligible chunks run on the CPU engines instead (graceful
	// degradation; §4.3's piggybacking in reverse).
	dmaAvoidUntil sim.Time

	// health tracks each DMA engine's failure-rate state machine
	// (index == engine == node).
	health []engineHealth
	// retryTokens/retryRefillAt implement the global retry budget: a
	// token bucket refilled in virtual time (see takeRetryToken).
	retryTokens   int
	retryRefillAt sim.Time
	// Brownout controller state (see brownoutEval). pressureSince and
	// calmSince are dwell anchors; zero means "no edge pending".
	brownout      bool
	pressureSince sim.Time
	calmSince     sim.Time
	// availBuf/probeBuf are per-dispatch-round engine availability
	// scratch (no yields between fill and use, so Service-level is safe).
	availBuf []bool
	probeBuf []bool

	// threads active (for auto-scaling and client partitioning).
	activeThreads int
	// parts caches clientsOf per thread slot (nil: not built yet).
	// NewClientOn and CloseClient clear it, as does clientsOf itself
	// once activeThreads moves off partsThreads. Every rebuild
	// allocates a fresh slice, so a sweep still ranging over an old
	// partition across a yield keeps its snapshot.
	parts        [][]*Client
	partsThreads int
	// epoch counts the events that can give a fruitless sweep work: a
	// ring push (doorbell), a DMA completion (dmaDone), a kill
	// (KillClient), and a partition rebuild (clientsOf), which covers
	// every change of activeThreads or of the client list. See
	// quietSweep.
	epoch uint64
	// spawnThread, when set, lets auto-scaling start another service
	// thread (the kernel integration supplies it).
	spawnThread func(slot int)
	parkSig     *sim.Signal
	parked      int

	// dmaBatchPool recycles dmaBatch carriers (and their pre-bound
	// completion closures) between dispatch rounds. Safe without
	// locking: pool operations never span a yield.
	dmaBatchPool []*dmaBatch
	// spareIssued and sparePins hold the issued trackers and pin
	// lists that finished tasks gave back (finishTask), for the next
	// tasks prepare to reuse.
	spareIssued []*Descriptor
	sparePins   [][]pinRec

	// kernelAS, when set, identifies the kernel address space: its
	// pages are unswappable and need no pinning.
	kernelAS *mem.AddrSpace

	stopped bool

	Stats Stats
}

// NewService creates a Copier service over the given physical memory
// and simulation environment.
func NewService(env *sim.Env, pm *mem.PhysMem, cfg Config) *Service {
	cfg = cfg.withDefaults()
	nn := cfg.Topo.Nodes()
	if pm.NumNodes() != nn {
		panic(fmt.Sprintf("core: topology has %d nodes but physical memory is partitioned into %d (call pm.ConfigureNodes)",
			nn, pm.NumNodes()))
	}
	s := &Service{
		env:         env,
		pm:          pm,
		at:          NewATCache(0),
		cfg:         cfg,
		groups:      make(map[string]*CGroupAccount),
		workSig:     sim.NewSignal("copier-work"),
		activateSig: sim.NewSignal("copier-activate"),
		parkSig:     sim.NewSignal("copier-park"),
	}
	s.dmas = make([]*hw.DMAChannel, nn)
	for i := range s.dmas {
		s.dmas[i] = hw.NewDMAChannel(env, pm, i, cfg.Topo)
	}
	s.health = make([]engineHealth, nn)
	s.retryTokens = retryBudget
	s.availBuf = make([]bool, nn)
	s.probeBuf = make([]bool, nn)
	return s
}

// numNodes returns how many NUMA nodes the service is sharded over
// (1 on the flat machine).
func (s *Service) numNodes() int { return len(s.dmas) }

// ATCacheStats exposes the address-transfer cache for reporting.
func (s *Service) ATCacheStats() *ATCache { return s.at }

// DMAs exposes all per-node DMA engines in node order.
func (s *Service) DMAs() []*hw.DMAChannel { return s.dmas }

// SetFaultInjector attaches a deterministic fault injector to the
// service and its DMA channel; nil detaches.
func (s *Service) SetFaultInjector(in *fault.Injector) {
	s.inj = in
	for _, d := range s.dmas {
		d.SetFaultInjector(in)
	}
}

// SetKernelAS identifies the kernel address space (no pinning needed).
func (s *Service) SetKernelAS(as *mem.AddrSpace) { s.kernelAS = as }

// cpuUnit returns the service's CPU engine cost model.
func (s *Service) cpuUnit() cycles.Unit {
	if s.cfg.UseERMSEngine {
		return cycles.UnitERMS
	}
	return cycles.UnitAVX
}

// SetSpawnThread installs the auto-scaling hook that starts a new
// service thread at the given slot.
func (s *Service) SetSpawnThread(fn func(slot int)) { s.spawnThread = fn }

// Backlog returns admitted-but-unexecuted bytes across clients.
func (s *Service) Backlog() int64 { return s.backlogBytes }

// ActiveThreads reports currently running (unparked) service threads.
func (s *Service) ActiveThreads() int { return s.activeThreads }

// Stop makes all service threads exit their loops.
func (s *Service) Stop() {
	s.stopped = true
	// A sweep still in flight finishes with normal copy slices and
	// steering.
	s.brownout = false
	s.workSig.Broadcast(s.env)
	s.activateSig.Broadcast(s.env)
	s.parkSig.Broadcast(s.env)
}

// Activate enables scenario-driven threads (§5.3); Deactivate puts
// them back to sleep once queues drain.
func (s *Service) Activate() {
	s.scenarioActive = true
	s.activateSig.Broadcast(s.env)
}

// Deactivate ends the scenario.
func (s *Service) Deactivate() { s.scenarioActive = false }

func (s *Service) now() sim.Time { return s.env.Now() }

// Group returns (creating if needed) the cgroup account with the
// given copier.shares (§4.5.2).
func (s *Service) Group(name string, shares int64) *CGroupAccount {
	if g, ok := s.groups[name]; ok {
		return g
	}
	if shares <= 0 {
		shares = 100
	}
	g := &CGroupAccount{Name: name, Shares: shares}
	s.groups[name] = g
	return g
}

// NewClient registers a client with paired user/kernel queue sets
// (copier_create_queue, Table 2). group may be nil (a default group
// is used).
func (s *Service) NewClient(name string, uas, kas *mem.AddrSpace, group *CGroupAccount) *Client {
	return s.NewClientOn(name, uas, kas, group, 0)
}

// NewClientOn registers a client homed on a NUMA node: its tasks are
// served by that node's service threads and steered to that node's
// DMA engine first. Panics if the service has no such node.
func (s *Service) NewClientOn(name string, uas, kas *mem.AddrSpace, group *CGroupAccount, node int) *Client {
	if node < 0 || node >= s.numNodes() {
		panic(fmt.Sprintf("core: client %q on node %d of a %d-node service", name, node, s.numNodes()))
	}
	if group == nil {
		group = s.Group("default", 100)
	}
	c := &Client{
		ID:       s.nextCID,
		Name:     name,
		UAS:      uas,
		KAS:      kas,
		U:        newQueueSet(s.cfg.QueueLen),
		K:        newQueueSet(s.cfg.QueueLen),
		Group:    group,
		Node:     node,
		Progress: sim.NewSignal("progress:" + name),
		svc:      s,
	}
	s.nextCID++
	s.clients = append(s.clients, c)
	clear(s.parts)
	group.clients = append(group.clients, c)
	if s.cfg.EnableATCache {
		s.at.Attach(uas)
		if kas != nil && kas != uas {
			s.at.Attach(kas)
		}
	}
	return c
}

// KillClient marks a client dead (its process exited or was killed).
// The service threads observe the flag at the next sweep and run the
// teardown protocol: drain the CSH rings, abort admitted tasks after
// waiting out their in-flight DMA, unpin pages, record ErrClientDead
// on descriptors, and unregister the client — all without wedging.
func (s *Service) KillClient(c *Client) {
	if c == nil || c.closed || c.dying {
		return
	}
	c.dying = true
	s.epoch++
	// Wake sleeping service threads unconditionally: the doorbell only
	// fires on submissions, and a dead client submits nothing more.
	s.workSig.Broadcast(s.env)
}

// teardownClient reclaims everything a dead client left behind. Runs
// in a service thread's context so pin releases and ring drains charge
// cycles like any other service work.
func (s *Service) teardownClient(ctx Ctx, c *Client) {
	reclaimed := 0
	// Drain every CSH ring, freeing the slots. Queued-but-unadmitted
	// copy tasks never pinned anything — they are simply dropped.
	for _, q := range []*QueueSet{c.K, c.U} {
		reclaimed += c.drainForTeardown(ctx, q.Copy)
		for q.Sync.Pop() != nil {
			ctx.Exec(cycles.TaskPop)
		}
	}
	if c.Shards != nil {
		for _, r := range c.Shards.rings {
			reclaimed += c.drainForTeardown(ctx, r)
		}
	}
	// Abort every admitted task: outstanding DMA still addresses the
	// pinned frames, so wait it out before dropping the pins.
	for _, t := range c.pending {
		if t.executed || t.aborted {
			continue
		}
		s.awaitInFlight(ctx, t)
		s.unpinAll(ctx, t.pins)
		t.pins = nil
		t.aborted = true
		t.err = ErrClientDead
		t.Desc.Err = ErrClientDead
		t.Desc.NotifyProgress(ctx.Env())
		c.backlogBytes -= int64(t.Len)
		s.backlogBytes -= int64(t.Len)
		s.Stats.AbortedTasks++
		reclaimed++
		// Kernel-side FUNCs still run — they reclaim kernel resources
		// (skbs, kernel buffers) the dead process cannot. User FUNCs
		// are dropped: there is no process left to run them.
		if h := t.Handler; h != nil && h.Kernel {
			ctx.Exec(cycles.HandlerDispatch + h.Cost)
			if h.Fn != nil {
				h.Fn()
			}
		}
	}
	c.pending = c.pending[:0]
	c.U.handlers = nil
	s.Stats.ClientTeardowns++
	s.Stats.ReclaimedTasks += int64(reclaimed)
	s.env.Recorder().At(obs.EvClientTeardown, int64(s.now()), c.Name, int64(c.ID), int64(reclaimed))
	c.Progress.Broadcast(ctx.Env())
	s.CloseClient(c)
}

// drainForTeardown empties one copy ring of a dead client in PopN
// batches, returning how many queued copy tasks it reclaimed.
func (c *Client) drainForTeardown(ctx Ctx, r *Ring) int {
	reclaimed := 0
	for {
		n := r.PopN(c.popBuf[:])
		if n == 0 {
			return reclaimed
		}
		ctx.Exec(popCost(n))
		for i := 0; i < n; i++ {
			if c.popBuf[i].Kind == KindCopy {
				reclaimed++
			}
			c.popBuf[i] = nil
		}
	}
}

// CloseClient unregisters a client.
func (s *Service) CloseClient(c *Client) {
	c.closed = true
	for i, x := range s.clients {
		if x == c {
			s.clients = append(s.clients[:i], s.clients[i+1:]...)
			clear(s.parts)
			break
		}
	}
	if c.Group != nil {
		for i, x := range c.Group.clients {
			if x == c {
				c.Group.clients = append(c.Group.clients[:i], c.Group.clients[i+1:]...)
				break
			}
		}
	}
}

// doorbell notifies service threads of new work. Every ring push goes
// through it.
func (s *Service) doorbell(c *Client) {
	s.epoch++
	if s.sleeping > 0 {
		s.workSig.Broadcast(s.env)
	}
}

// ThreadMain is a Copier thread's body (§4.5.1). The integration
// layer runs it on a dedicated kernel thread; slot identifies the
// thread for client partitioning.
//
// The poll loop's rules live in poller.step, which runs between the
// loop's waits in event context (sim.Env.Spin), so an idle thread's
// sweeps cost no coroutine switch, and its quiet sweeps declare idle
// stretches that the event loop skips (poller.declareIdle). The
// thread itself runs only what needs its stack: blocking, a full
// sweep, serving the picked client, and sleeping. ctx must run in its
// environment's current process.
func (s *Service) ThreadMain(ctx Ctx, slot int) {
	s.activeThreads++
	// Save AVX state once per activation instead of per copy (§4.3).
	ctx.Exec(cycles.XSave)
	l := &poller{s: s, slot: slot, charge: func(sim.Time) {}}
	if c, ok := ctx.(interface{ Charge(sim.Time) }); ok {
		l.charge = c.Charge
	}
	// Bound once: Spin and DeclareIdle allocate nothing.
	step, env := l.step, ctx.Env()
	l.idleOK, l.idleSkip = l.idleHolds, l.skipIdle
	for l.at != doStop {
		env.Spin(step)
		switch l.at {
		case doActivate:
			s.Stats.Sleeps++
			ctx.Block(s.activateSig)
			l.at = atTop
		case doPark:
			// Parked by auto-scaling (flat machine only: the sharded
			// service runs a static thread per node).
			s.parked++
			ctx.Block(s.parkSig)
			s.parked--
			l.at = atTop
		case doSweep:
			l.worked, l.mine = s.sweepQueues(ctx, slot, l.mine)
			l.at = atPick
		case doServe:
			if s.claim(l.pick) {
				budget := copySlice
				if s.brownout {
					// Brownout batches more aggressively: a doubled copy
					// slice amortizes scheduling and submission costs
					// while the service digs out of the backlog.
					budget *= 2
				}
				l.worked = s.serveClient(ctx, l.pick, budget) || l.worked
				s.release(l.pick)
			}
			l.at = atSwept
		case doSleep:
			l.sleep(ctx)
			l.at = atTop
		}
	}
	// Final reclaim: a client killed just before Stop must not leak
	// pins because the loop never saw it.
	s.reapDying(ctx, s.clients)
	s.activeThreads--
}

// poller is one service thread's poll loop. step runs the loop's rules
// from where at says the loop stands; when the thread's stack is
// needed, step reports done with at naming the work (a do* value), and
// ThreadMain does it and points at where step resumes.
type poller struct {
	s      *Service
	slot   int
	charge func(sim.Time) // the Ctx's Charge, or a no-op
	at     pollAt
	idle   int        // fruitless sweeps in a row
	quiet  quietSweep // the last fruitless full sweep's proof
	// The sweep in progress: its admission instant, the epoch and
	// client snapshot taken then, whether it scanned the queues
	// (false: a quiet sweep), whether it did work, and the client its
	// pick chose.
	admitAt sim.Time
	epoch   uint64
	mine    []*Client
	full    bool
	worked  bool
	pick    *Client
	// The idle stretch declared at the pending wait: whether its steps
	// see DMA in flight, and its callbacks, bound once.
	idleDMA  bool
	idleOK   func() bool
	idleSkip func(int64)
}

// pollAt is where a poll loop stands between steps, or the work its
// step hands to the thread.
type pollAt int

const (
	atTop      pollAt = iota // loop top: stop, scenario and park checks, then admission
	atPick                   // the scans are done or skipped: wait out the pick
	atPicked                 // the pick wait has ended
	atSwept                  // the sweep's outcome is known: idle accounting
	atPolled                 // the PollIteration wait has ended
	doStop                   // leave the loop
	doActivate               // block until the scenario activates
	doPark                   // block while auto-scaling parks the slot
	doSweep                  // scan the queues (sweepQueues)
	doServe                  // serve the picked client
	doSleep                  // sleep until a doorbell or sleepPeriod
)

// step runs the poll loop until its next wait, which it returns, or
// until the thread must take over. It may run in event context, so it
// only reads and updates service state; each wait's cycles are charged
// when the wait ends, as Ctx.Exec charges them.
//
// A sweep admits new tasks, serves Sync Queues, expires lazy tasks and
// executes one CFS-picked client's slice. A quiet sweep (same epoch as
// the proof, before its trigger) skips the scans, which would find
// nothing, and charges the same SchedulePick wait; if the proof lapses
// during that wait it picks for real.
func (l *poller) step() (sim.Time, bool) {
	s := l.s
	for {
		switch l.at {
		case atTop:
			if s.stopped {
				l.at = doStop
				return 0, false
			}
			if s.cfg.Mode == PollScenario && !s.scenarioActive {
				l.at = doActivate
				return 0, false
			}
			if l.parked() {
				l.at = doPark
				return 0, false
			}
			l.admitAt = s.now()
			s.brownoutEval(l.admitAt)
			l.mine = s.clientsOf(l.slot)
			l.epoch = s.epoch
			l.full = l.epoch != l.quiet.epoch || l.admitAt >= l.quiet.until
			l.worked = false
			l.at = atPick
			if l.full {
				l.at = doSweep
				return 0, false
			}
		case atPick:
			// CFS pick: group with minimum vruntime, then client within
			// (§4.5.3).
			l.at = atPicked
			if !l.full {
				l.declareIdle()
			}
			return cycles.SchedulePick, true
		case atPicked:
			l.charge(cycles.SchedulePick)
			if l.full || s.epoch != l.epoch || s.now() >= l.quiet.until {
				if l.pick = s.pickClient(l.mine, s.now()); l.pick != nil {
					l.at = doServe
					return 0, false
				}
			}
			if l.full && !l.worked {
				l.quiet = quietSweep{l.epoch, nextTrigger(l.mine, l.admitAt)}
			}
			l.at = atSwept
		case atSwept:
			if l.worked || s.inflightDMA > 0 {
				l.idle = 0
				if l.slot == 0 {
					s.autoscale()
				}
				l.at = atTop
				continue
			}
			l.idle++
			s.Stats.PollSweeps++
			l.at = atPolled
			l.declareIdle()
			return cycles.PollIteration, true
		case atPolled:
			l.charge(cycles.PollIteration)
			l.at = atTop
			if l.idle >= s.sleepAfter() {
				l.at = doSleep
				return 0, false
			}
		}
	}
}

// declareIdle declares the steps after the wait step is about to
// return an idle stretch (sim.IdleStretch): quiet sweeps under the
// quiet proof's epoch, before its trigger and before the thread would
// sleep. With DMA in flight each step waits SchedulePick, resets idle
// and admits the next quiet sweep. Otherwise the steps alternate: a
// pick step (from atPicked) counts a fruitless sweep and waits
// PollIteration, a poll step (from atPolled) admits the next sweep and
// waits SchedulePick; the poll step that reaches sleepAfter is not
// covered.
func (l *poller) declareIdle() {
	s := l.s
	l.idleDMA = s.inflightDMA > 0
	if !l.idleHolds() {
		return
	}
	st := sim.IdleStretch{Before: l.quiet.until, OK: l.idleOK, Skip: l.idleSkip}
	left := int64(s.sleepAfter() - l.idle) // fruitless sweeps before the sleep
	switch {
	case l.idleDMA:
		if l.slot == 0 && s.autoscales() {
			return
		}
		st.Waits, st.N = [2]sim.Time{cycles.SchedulePick, cycles.SchedulePick}, math.MaxInt64
	case l.at == atPicked:
		st.Waits, st.N = [2]sim.Time{cycles.PollIteration, cycles.SchedulePick}, 2*left-1
	default:
		st.Waits, st.N = [2]sim.Time{cycles.SchedulePick, cycles.PollIteration}, 2*left
	}
	if st.N > 0 {
		s.env.DeclareIdle(st)
	}
}

// idleHolds reports whether the declared stretch's steps are still
// quiet sweeps that change nothing outside the loop: besides the epoch
// (and, through Before, the trigger) of the quiet proof, it checks
// every field the steps read that another thread or event can change
// without bumping the epoch: whether DMA is in flight, Stop, the
// scenario switch, the thread count (through the park test and the
// partition cache, which NewClientOn and CloseClient also clear) and
// the brownout controller.
func (l *poller) idleHolds() bool {
	s := l.s
	return s.epoch == l.quiet.epoch && (s.inflightDMA > 0) == l.idleDMA && !s.stopped &&
		(s.cfg.Mode != PollScenario || s.scenarioActive) && !l.parked() &&
		s.partsThreads == s.activeThreads && s.parts[l.slot] != nil && s.brownoutResting()
}

// parked reports whether auto-scaling has parked this thread's slot
// (flat machine only: the sharded service runs a static thread per
// node).
func (l *poller) parked() bool {
	return l.s.numNodes() == 1 && l.slot >= l.s.activeThreads && l.slot != 0
}

// skipIdle does k covered steps' accounting (sim.IdleStretch.Skip) at
// the k-th step's instant: each step charges the wait that ended at it.
func (l *poller) skipIdle(k int64) {
	s := l.s
	if l.idleDMA {
		l.charge(sim.Time(k) * cycles.SchedulePick)
		l.idle = 0
		l.admitAt = s.now()
		return
	}
	picks, polls := k/2, k/2
	if k%2 == 1 {
		if l.at == atPicked {
			picks++
		} else {
			polls++
		}
	}
	l.charge(sim.Time(picks)*cycles.SchedulePick + sim.Time(polls)*cycles.PollIteration)
	l.idle += int(picks)
	s.Stats.PollSweeps += picks
	if (l.at == atPolled) == (k%2 == 1) {
		// The k-th step was a poll step: it admitted the sweep whose
		// pick is now pending.
		l.at, l.admitAt = atPicked, s.now()
		return
	}
	if polls > 0 {
		l.admitAt = s.now() - cycles.SchedulePick
	}
	l.at = atPolled
}

// sleepAfter is how many fruitless sweeps in a row put a thread to
// sleep. Scenario-driven threads sleep as soon as queues drain
// ("sleeps when queues are empty", §6.2.4), woken by the submission
// doorbell; NAPI threads poll for napiBudget sweeps first (§4.5.1).
func (s *Service) sleepAfter() int {
	if s.cfg.Mode == PollScenario {
		return 32
	}
	return napiBudget
}

// sleep puts an idle thread to sleep until a doorbell or sleepPeriod.
// A NAPI thread saves its SIMD state around the sleep (§4.5.1).
func (l *poller) sleep(ctx Ctx) {
	s := l.s
	napi := s.cfg.Mode == PollNAPI
	if napi {
		ctx.Exec(cycles.XSave)
	}
	s.sleeping++
	s.Stats.Sleeps++
	fired := ctx.BlockTimeout(s.workSig, sleepPeriod)
	s.sleeping--
	if fired {
		// Doorbell wake (copier_awaken-style IPI).
		ctx.Exec(cycles.WakeThread)
		l.idle = 0
	} else {
		// Timeout wake: peek once, then go straight back to sleep if
		// still idle.
		l.idle = s.sleepAfter()
	}
	if napi {
		ctx.Exec(cycles.XSave)
	}
}

// autoscale adjusts the active thread count to keep per-thread backlog
// between LowLoad and HighLoad (§4.5.1).
func (s *Service) autoscale() {
	if !s.autoscales() {
		return
	}
	perThread := s.backlogBytes / int64(s.activeThreads)
	switch {
	case perThread > s.cfg.HighLoad && s.activeThreads < s.cfg.MaxThreads:
		if s.parked > 0 {
			s.activeThreads++
			s.parkSig.Broadcast(s.env)
		} else if s.spawnThread != nil {
			slot := s.activeThreads
			s.spawnThread(slot)
		}
	case perThread < s.cfg.LowLoad && s.activeThreads > 1:
		// Threads with slot >= activeThreads park themselves at the
		// next loop iteration.
		s.activeThreads--
	}
}

// autoscales reports whether autoscale can act: only on the flat
// machine with room for more than one thread. The sharded service runs
// a static thread per node; parking a node's only thread would strand
// its clients.
func (s *Service) autoscales() bool { return s.cfg.MaxThreads > 1 && s.numNodes() == 1 }

// clientsOf returns the clients thread slot serves: slot t serves
// node t%nodes (every slot on the flat machine, which is the one-node
// case), and a node's threads stripe that node's clients among
// themselves in registration order. Served from the per-slot cache,
// so the steady-state poll allocates nothing (TestClientsOfAllocFree).
func (s *Service) clientsOf(slot int) []*Client {
	if s.partsThreads != s.activeThreads {
		clear(s.parts)
		s.partsThreads = s.activeThreads
	}
	for len(s.parts) <= slot {
		s.parts = append(s.parts, nil)
	}
	if s.parts[slot] == nil {
		s.parts[slot] = s.partition(slot)
		s.epoch++
	}
	return s.parts[slot]
}

// partition builds slot's client list from scratch (clientsOf's cache
// fill) into a fresh, non-nil slice.
func (s *Service) partition(slot int) []*Client {
	nn := s.numNodes()
	node, rank := slot%nn, slot/nn
	perNode := max(s.activeThreads/nn, 1)
	out := []*Client{}
	i := 0
	for _, c := range s.clients {
		if c.Node != node {
			continue
		}
		if i%perNode == rank%perNode {
			out = append(out, c)
		}
		i++
	}
	return out
}

// quietSweep is a service thread's proof that its next sweep finds
// nothing: its last full sweep was fruitless under epoch, and until is
// the earliest Deadline, LazyDeadline or retryAt of a pending task
// after that sweep's admission instant (sim.Infinity if none). The
// zero value proves nothing.
type quietSweep struct {
	epoch uint64
	until sim.Time
}

// nextTrigger returns the earliest Deadline, LazyDeadline or retryAt
// of mine's pending tasks after admitAt, or sim.Infinity. One between
// admission and pick counts too: the sweep shed and expired before it.
func nextTrigger(mine []*Client, admitAt sim.Time) sim.Time {
	until := sim.Infinity
	for _, c := range mine {
		for _, t := range c.pending {
			for _, at := range [...]sim.Time{t.Deadline, t.LazyDeadline, t.retryAt} {
				if at > admitAt && at < until {
					until = at
				}
			}
		}
	}
	return until
}

// sweepQueues reclaims dead clients, admits new tasks, serves Sync
// Queues, finalizes and sheds tasks, and expires lazy tasks over
// slot's clients mine. Reports whether any work was done, and slot's
// client list after any teardown.
func (s *Service) sweepQueues(ctx Ctx, slot int, mine []*Client) (bool, []*Client) {
	worked := false
	// Dead clients first: reclaim their state before serving anything.
	if s.reapDying(ctx, mine) {
		worked = true
		mine = s.clientsOf(slot)
	}
	for _, c := range mine {
		if c.closed || !s.claim(c) {
			continue
		}
		before := len(c.pending)
		c.admit(ctx, s)
		s.release(c)
		if len(c.pending) != before {
			worked = true
		}
	}
	// Sync Tasks first: kernel-mode queues, then user-mode (§4.2.2).
	for _, kmode := range []bool{true, false} {
		for _, c := range mine {
			if s.claim(c) {
				worked = s.serveSyncQueue(ctx, c, kmode) || worked
				s.release(c)
			}
		}
	}
	// Finish tasks whose outstanding DMA completed since last sweep,
	// finalize tasks whose retries are exhausted, and shed admitted
	// tasks already past their SLO deadline before any engine touches
	// them (failTask/shedLate mutate the pending list, so both sets
	// are collected first).
	dnow := s.now()
	for _, c := range mine {
		if !s.claim(c) {
			continue
		}
		var failed, late []*Task
		for _, t := range c.pending {
			if t.executed || t.aborted {
				continue
			}
			if t.pendingErr != nil && t.inflight == 0 {
				failed = append(failed, t)
				continue
			}
			if t.Deadline != 0 && !t.dispatched && t.inflight == 0 &&
				t.pendingErr == nil && dnow >= t.Deadline {
				// Dead-on-arrival work: nothing has run yet, so dropping
				// it costs nothing and frees the slice for live tasks.
				// Partially dispatched tasks run to completion instead.
				late = append(late, t)
				continue
			}
			if t.segDone >= t.Len {
				s.finishTask(ctx, c, t)
				worked = true
			}
		}
		for _, t := range failed {
			s.failTask(ctx, c, t, t.pendingErr)
			worked = true
		}
		for _, t := range late {
			s.shedLate(ctx, c, t)
			worked = true
		}
		c.removeExecuted()
		s.release(c)
	}
	// Expire lazy tasks.
	now := s.now()
	for _, c := range mine {
		if !s.claim(c) {
			continue
		}
		var expired []*Task
		for _, t := range c.pending {
			if t.Lazy && !t.executed && !t.aborted && now >= t.LazyDeadline {
				expired = append(expired, t)
			}
		}
		for _, t := range expired {
			s.Stats.LazyExpired++
			s.executeWithDeps(ctx, c, t, 0, t.Len, 0)
			worked = true
		}
		c.removeExecuted()
		s.release(c)
	}
	return worked, mine
}

// reapDying tears down the dying clients among clients that no other
// thread holds, and reports whether it tore any down. They are
// collected first: teardown unregisters clients from s.clients, and
// clients dying during a teardown's yields wait for the next call.
func (s *Service) reapDying(ctx Ctx, clients []*Client) bool {
	var dying []*Client
	for _, c := range clients {
		if c.dying && !c.closed {
			dying = append(dying, c)
		}
	}
	reaped := false
	for _, c := range dying {
		if !c.closed && s.claim(c) {
			s.teardownClient(ctx, c)
			s.release(c)
			reaped = true
		}
	}
	return reaped
}

// claim reserves c for the calling thread until release, or reports
// false if another thread holds it. A sweep's client snapshot outlives
// a partition change (clientsOf), so two threads' snapshots can share a
// client, whose rounds all run on its one set of scratch buffers.
func (s *Service) claim(c *Client) bool {
	if c.held {
		c.passed = true
		return false
	}
	c.held = true
	return true
}

// release ends a claim. A thread that found c held meanwhile may have
// proved a quiet sweep without c's work, so release then rings the
// doorbell: the epoch moves and sleeping threads wake.
func (s *Service) release(c *Client) {
	c.held = false
	if c.passed {
		c.passed = false
		s.doorbell(c)
	}
}

// pickClient implements the two-level CFS-by-copy-length policy over
// the clients runnable at now; the caller charges the SchedulePick.
//
//copier:noalloc
func (s *Service) pickClient(mine []*Client, now sim.Time) *Client {
	var bestG *CGroupAccount
	var bestC *Client
	for _, c := range mine {
		if c.closed || !c.runnable(now) {
			continue
		}
		g := c.Group
		if bestC == nil ||
			g.vruntime < bestG.vruntime ||
			(g == bestG && c.vruntime < bestC.vruntime) {
			bestG, bestC = g, c
		}
	}
	return bestC
}

// runnable reports whether the client has non-lazy pending work that
// is dispatchable now (not backing off after a transient failure, not
// awaiting failure finalization).
func (c *Client) runnable(now sim.Time) bool {
	for _, t := range c.pending {
		if t.dispatchable(now) {
			return true
		}
	}
	return false
}

// dispatchable reports whether the scheduler may hand t to the copy
// units right now. A task past its deadline is never started (the
// sweep sheds it), but once dispatch begins the deadline no
// longer gates: a partially-copied task runs to completion so its pins
// and progress accounting stay coherent.
func (t *Task) dispatchable(now sim.Time) bool {
	return !t.executed && !t.aborted && !t.Lazy &&
		t.pendingErr == nil && t.retryAt <= now &&
		(t.Deadline == 0 || t.dispatched || now < t.Deadline)
}

// serveClient executes pending tasks FIFO up to budget bytes, fusing
// adjacent dependency-free tasks into piggyback rounds (§4.3). A
// small head opens an e-piggyback round capped at ePiggybackFuse,
// exactly as before; a large head opens a round spanning the rest of
// the copy slice, so the DMA submission cost is amortized across
// tasks in the drained batch rather than only within one task.
func (s *Service) serveClient(ctx Ctx, c *Client, budget units.Bytes) bool {
	worked := false
	for budget > 0 {
		// Head = oldest non-lazy unexecuted task that is dispatchable
		// (tasks backing off after a transient failure wait out their
		// retryAt unless something depends on them).
		now := s.now()
		var head *Task
		for _, t := range c.pending {
			if t.dispatchable(now) {
				head = t
				break
			}
		}
		if head == nil {
			break
		}
		worked = true
		// Round byte cap: e-piggyback fuse for a small head; the
		// remaining slice for a large head (cross-task coalescing).
		roundCap := ePiggybackFuse
		if s.brownout {
			roundCap *= 2
		}
		if head.Len >= piggybackThreshold {
			roundCap = head.Len
			if budget > roundCap {
				roundCap = budget
			}
		}
		// Fuse adjacent dependency-free tasks into the round. The batch
		// lives in the client's scratch buffer; executeBatch consumes it
		// fully before the next iteration reuses it.
		batch := append(c.batchBuf[:0], head)
		fused := head.Len
		for _, t := range c.pending {
			if t == head || !t.dispatchable(now) {
				continue
			}
			if t.orderIdx < head.orderIdx {
				continue
			}
			if fused+t.Len > roundCap {
				break
			}
			if s.dependsOnAny(ctx, c, t, batch) {
				break
			}
			batch = append(batch, t)
			fused += t.Len
		}
		c.batchBuf = batch
		// Dependencies of the head must still run first: the batch
		// bypasses executeWithDeps.
		s.runDeps(ctx, c, head, 0)
		reqs := c.reqBuf[:0]
		for _, b := range batch {
			reqs = append(reqs, execReq{b, 0, b.Len})
		}
		c.reqBuf = reqs
		s.executeBatch(ctx, c, reqs)
		budget -= fused
	}
	c.removeExecuted()
	return worked
}

// dependsOnAny reports whether t has a read/write or write/write
// conflict with any batch member or any earlier unexecuted task
// outside the batch.
func (s *Service) dependsOnAny(ctx Ctx, c *Client, t *Task, batch []*Task) bool {
	for _, b := range batch {
		ctx.Exec(cycles.DependencyCheck)
		if t.srcOverlap(b.DstAS, b.Dst, b.Len) ||
			t.dstOverlap(b.DstAS, b.Dst, b.Len) ||
			b.srcOverlap(t.DstAS, t.Dst, t.Len) {
			return true
		}
	}
	// Earlier pending tasks not in the batch (e.g. lazy) conflict the
	// same way.
outer:
	for _, p := range c.pending {
		if p.orderIdx >= t.orderIdx || p.executed || p.aborted {
			continue
		}
		for _, b := range batch {
			if b == p {
				continue outer
			}
		}
		ctx.Exec(cycles.DependencyCheck)
		if s.dependsOn(p, t) {
			return true
		}
	}
	return false
}

// serveSyncQueue drains one Sync Queue, promoting or aborting tasks.
func (s *Service) serveSyncQueue(ctx Ctx, c *Client, kmode bool) bool {
	q := c.U
	if kmode {
		q = c.K
	}
	worked := false
	for {
		st := q.Sync.Pop()
		if st == nil {
			return worked
		}
		ctx.Exec(cycles.TaskPop)
		worked = true
		// The client submitted the referenced Copy Task strictly
		// before this Sync Task, but it may still sit unadmitted in
		// the Copy Queue (the rings are independent): drain admissions
		// first so promotion cannot miss it.
		c.admit(ctx, s)
		switch st.Kind {
		case KindSync:
			s.promote(ctx, c, st.Addr, st.SyncLen)
		case KindAbort:
			s.abort(ctx, c, st)
		default:
			panic(fmt.Sprintf("core: %v task on sync queue", st.Kind))
		}
	}
}

// promote executes, out of order, the pending tasks whose destination
// covers [addr, addr+n), honoring data dependencies (§4.1, §4.2.2,
// Fig. 6-b).
func (s *Service) promote(ctx Ctx, c *Client, addr mem.VA, n units.Bytes) {
	var targets []*Task
	for _, t := range c.pending {
		ctx.Exec(cycles.DependencyCheck)
		if t.executed || t.aborted {
			continue
		}
		if RangesOverlap(t.Desc.Base, t.Desc.Len, addr, n) || RangesOverlap(t.Dst, t.Len, addr, n) {
			targets = append(targets, t)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].orderIdx < targets[j].orderIdx })
	for _, t := range targets {
		s.Stats.Promotions++
		// Promote only the segments covering the synced range (§4.1
		// fine-grained update; §4.4 layered absorption depends on the
		// rest of the task staying pending).
		base := t.Desc.Base
		lo := units.Bytes(0)
		if addr > base {
			lo = units.Bytes(addr - base)
		}
		hi := t.Len
		if end := units.Bytes(addr + mem.VA(n) - base); end < hi {
			hi = end
		}
		if hi <= lo {
			lo, hi = 0, t.Len
		}
		s.executeWithDeps(ctx, c, t, lo, hi, 0)
	}
	c.removeExecuted()
}

// abort discards still-queued Copy Tasks — the one bound to the
// abort's descriptor, or those whose destination intersects
// [addr, addr+n) (§4.4).
func (s *Service) abort(ctx Ctx, c *Client, st *Task) {
	for _, t := range c.pending {
		ctx.Exec(cycles.DependencyCheck)
		if t.executed || t.aborted {
			continue
		}
		match := false
		if st.AbortDesc != nil {
			match = t.Desc == st.AbortDesc
		} else {
			match = RangesOverlap(t.Dst, t.Len, st.Addr, st.SyncLen)
		}
		if match {
			// Outstanding DMA may still address the pinned pages:
			// wait it out before dropping the pins.
			s.awaitInFlight(ctx, t)
			s.unpinAll(ctx, t.pins)
			t.pins = nil
			t.aborted = true
			c.backlogBytes -= int64(t.Len)
			s.backlogBytes -= int64(t.Len)
			s.Stats.AbortedTasks++
			// The copy is discarded but the post-copy FUNC is still
			// delegated — it reclaims buffers the client no longer
			// tracks (the proxy's skb free, §4.4 / §5.2).
			if h := t.Handler; h != nil {
				if h.Kernel {
					ctx.Exec(cycles.HandlerDispatch + h.Cost)
					if h.Fn != nil {
						h.Fn()
					}
				} else {
					c.U.handlers = append(c.U.handlers, h)
				}
			}
		}
	}
	c.removeExecuted()
	c.Progress.Broadcast(ctx.Env())
}
