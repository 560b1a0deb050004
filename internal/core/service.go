package core

import (
	"errors"
	"fmt"
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

// Config tunes the service. Zero values select defaults. The Enable*
// switches exist for the paper's ablations (Fig. 12-c: async only vs
// +hardware vs +absorption).
type Config struct {
	// QueueLen is the per-ring capacity.
	QueueLen int
	// SegSize is the default segment granularity.
	SegSize units.Bytes
	// CopySlice caps bytes served per scheduling decision (§4.5.3:
	// "administrators can adjust Copier's copy slice").
	CopySlice units.Bytes
	// PiggybackThreshold is the task size at/above which i-piggyback
	// engages DMA (§4.3: ">=12KB").
	PiggybackThreshold units.Bytes
	// EPiggybackFuse is the max bytes of adjacent small tasks fused
	// into one e-piggyback round.
	EPiggybackFuse units.Bytes
	// DMACandidateMin is the smallest subtask worth a DMA descriptor.
	DMACandidateMin units.Bytes
	// LazyPeriod is how long a Lazy Task may linger before forced
	// execution (§4.4).
	LazyPeriod sim.Time

	// MaxRetries bounds transient engine failures absorbed per task
	// before the task completes with an error. Zero selects the
	// default (8); NoRetries (or any negative value) disables retries
	// entirely — the first transient failure is final.
	MaxRetries int
	// RetryBackoff is the base re-dispatch delay after a transient
	// engine failure; it doubles per retry (capped at 64x). Zero
	// selects the default; negative selects no backoff.
	RetryBackoff sim.Time
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
	// RetryBudget is the capacity of the global retry token bucket:
	// every granted transient retry consumes a token, and tokens
	// refill at one per RetryRefill of virtual time. When the bucket
	// runs dry, further failures become definite errors instead of
	// amplifying overload with a retry storm. Zero selects the default
	// (256); negative disables the budget. Re-steers after a permanent
	// engine death are exempt — denying those would turn hardware loss
	// into task loss.
	RetryBudget int
	// RetryRefill is the virtual time to earn one retry token back.
	RetryRefill sim.Time
	// QuarantineProbe is how long a quarantined engine sits out before
	// the steering layer offers it one half-open probe chunk; a clean
	// completion readmits the engine, a failure re-arms the clock.
	QuarantineProbe sim.Time

	// BrownoutHigh/BrownoutLow are service-backlog watermarks (bytes)
	// for the brownout controller: backlog above High for a full
	// BrownoutDwell enters brownout (double copy slices and fuse
	// windows, local-node-only steering, lowest-priority admissions
	// shed); backlog below Low for a full dwell exits it. Zero
	// BrownoutHigh disables the controller (the default — brownout is
	// an operator opt-in).
	BrownoutHigh int64
	BrownoutLow  int64
	// BrownoutDwell is the hysteresis dwell on both edges.
	BrownoutDwell sim.Time
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
	// NAPIBudget is empty poll sweeps before sleeping.
	NAPIBudget int
	// SleepPeriod bounds a NAPI sleep (the thread re-checks queues on
	// wake).
	SleepPeriod sim.Time

	// Auto-scaling (§4.5.1): keep backlog between LowLoad and
	// HighLoad bytes per active thread.
	LowLoad    int64
	HighLoad   int64
	MaxThreads int

	// Topo places the service on a machine topology: one DMA engine
	// per node, thread slot i serving node i%nodes, clients pinned to
	// their node's threads, and NUMA-aware engine steering with
	// distance-scaled costs. nil or a single-node topology selects the
	// flat machine — the one-node case of the same service, which
	// alone auto-scales its thread count (MaxThreads).
	Topo *topo.Topology
}

func (c Config) withDefaults() Config {
	if c.QueueLen == 0 {
		c.QueueLen = 4096
	}
	if c.SegSize == 0 {
		c.SegSize = DefaultSegSize
	}
	if c.CopySlice == 0 {
		c.CopySlice = 256 << 10
	}
	if c.PiggybackThreshold == 0 {
		c.PiggybackThreshold = 12 << 10
	}
	if c.EPiggybackFuse == 0 {
		c.EPiggybackFuse = 24 << 10
	}
	if c.DMACandidateMin == 0 {
		c.DMACandidateMin = 2 << 10
	}
	if c.LazyPeriod == 0 {
		c.LazyPeriod = 2 * cycles.CyclesPerMicrosecond * 1000 // 2ms
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0 // NoRetries: first transient failure is final
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 20 * cycles.CyclesPerMicrosecond
	} else if c.RetryBackoff < 0 {
		c.RetryBackoff = 0
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
	if c.RetryBudget == 0 {
		c.RetryBudget = 256
	} else if c.RetryBudget < 0 {
		c.RetryBudget = 0 // unbounded
	}
	if c.RetryRefill == 0 {
		c.RetryRefill = 5 * cycles.CyclesPerMicrosecond
	}
	if c.QuarantineProbe == 0 {
		c.QuarantineProbe = 200 * cycles.CyclesPerMicrosecond
	}
	if c.BrownoutHigh > 0 {
		if c.BrownoutLow == 0 {
			c.BrownoutLow = c.BrownoutHigh / 8
		}
		if c.BrownoutDwell == 0 {
			c.BrownoutDwell = 50 * cycles.CyclesPerMicrosecond
		}
	}
	if c.NAPIBudget == 0 {
		// ~100us of busy polling before sleeping, like io_uring
		// SQPOLL's sq_thread_idle.
		c.NAPIBudget = 5000
	}
	if c.SleepPeriod == 0 {
		c.SleepPeriod = 100 * cycles.CyclesPerMicrosecond
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
// defaulted knobs — a negative RetryBackoff, DMACooldown, MaxPending
// or RetryBudget selects zero/unbounded rather than the default.
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
	DroppedTasks    int64
	AbortedTasks    int64
	SyncsServed     int64
	Promotions      int64
	AVXBytes        int64
	DMABytes        int64
	AbsorbedBytes   int64
	ProactiveFaults int64
	KFuncsRun       int64
	UFuncsQueued    int64
	PollSweeps      int64
	Sleeps          int64
	Wakeups         int64
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
	EngineDeaths     int64 // engines that failed permanently
	Degradations     int64 // Healthy -> Degraded transitions
	Quarantines      int64 // Degraded -> Quarantined transitions
	ProbeRecoveries  int64 // quarantined engines readmitted by a clean probe
	ProbeFailures    int64 // probes that failed and re-armed the quarantine
	QuarantineCycles int64 // total virtual time engines spent quarantined
	ResteeredChunks  int64 // chunks re-dispatched after a permanent engine death

	// Admission control and shedding counters.
	OverloadShed    int64 // admissions rejected at the MaxPending bound
	DeadlineShed    int64 // admitted tasks dropped past their SLO deadline
	BrownoutShed    int64 // low-priority admissions rejected during brownout
	RetryDenied     int64 // transient retries denied by the retry budget
	BrownoutEntries int64 // times the brownout controller engaged
	BrownoutCycles  int64 // total virtual time spent in brownout
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
	brownoutAt    sim.Time
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
	// spawnThread, when set, lets auto-scaling start another service
	// thread (the kernel integration supplies it).
	spawnThread func(slot int)
	parkSig     *sim.Signal
	parked      int

	// cache, when set, observes service-side CPU copy traffic (CPI
	// study).
	cache *hw.Cache

	// dmaBatchPool recycles dmaBatch carriers (and their pre-bound
	// completion closures) between dispatch rounds. Safe without
	// locking: pool operations never span a yield.
	dmaBatchPool []*dmaBatch

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
	nn := 1
	if cfg.Topo != nil {
		nn = cfg.Topo.Nodes()
		if pm.NumNodes() != nn {
			panic(fmt.Sprintf("core: topology has %d nodes but physical memory is partitioned into %d (call pm.ConfigureNodes)",
				nn, pm.NumNodes()))
		}
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
		s.dmas[i] = hw.NewDMAChannel(env, pm)
		s.dmas[i].SetNUMA(i, cfg.Topo)
	}
	s.health = make([]engineHealth, nn)
	s.retryTokens = cfg.RetryBudget
	s.availBuf = make([]bool, nn)
	s.probeBuf = make([]bool, nn)
	return s
}

// numNodes returns how many NUMA nodes the service is sharded over
// (1 on the flat machine).
func (s *Service) numNodes() int { return len(s.dmas) }

// Config returns the effective configuration.
func (s *Service) Config() Config { return s.cfg }

// ATCacheStats exposes the address-transfer cache for reporting.
func (s *Service) ATCacheStats() *ATCache { return s.at }

// DMA exposes the node-0 DMA channel (benchmarks inspect byte
// counters; on the flat machine it is the only engine).
func (s *Service) DMA() *hw.DMAChannel { return s.dmas[0] }

// DMAs exposes all per-node DMA engines in node order.
func (s *Service) DMAs() []*hw.DMAChannel { return s.dmas }

// SetCache attaches a cache model observing service-side copies.
func (s *Service) SetCache(c *hw.Cache) { s.cache = c }

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
	if s.brownout {
		// Close the brownout accounting so BrownoutCycles covers a
		// run that ends mid-brownout.
		s.Stats.BrownoutCycles += int64(s.now() - s.brownoutAt)
		s.brownout = false
	}
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

// trace emits a service event through the environment tracer, if one
// is installed (sim.Env.SetTracer) — the timeline cmd/copiertrace
// prints.
func (s *Service) trace(format string, args ...any) {
	if tr := s.env.Tracer(); tr != nil {
		tr(s.env.Now(), "[copier] "+format, args...)
	}
}

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
// DMA engine first. On the flat machine (or out-of-range node) the
// client lands on node 0 — identical to NewClient.
func (s *Service) NewClientOn(name string, uas, kas *mem.AddrSpace, group *CGroupAccount, node int) *Client {
	if node < 0 || node >= s.numNodes() {
		node = 0
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
		for {
			n := q.Copy.PopN(c.popBuf[:])
			if n == 0 {
				break
			}
			ctx.Exec(popCost(n))
			for i := 0; i < n; i++ {
				if c.popBuf[i].Kind == KindCopy {
					reclaimed++
				}
				c.popBuf[i] = nil
			}
		}
		for q.Sync.Pop() != nil {
			ctx.Exec(cycles.TaskPop)
		}
	}
	if c.Shards != nil {
		reclaimed += c.drainShardsForTeardown(ctx)
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
		if t.Desc != nil {
			t.Desc.Err = ErrClientDead
			t.Desc.NotifyProgress(ctx.Env())
		}
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
			s.Stats.KFuncsRun++
		}
	}
	c.pending = c.pending[:0]
	c.U.handlers = nil
	s.Stats.ClientTeardowns++
	s.Stats.ReclaimedTasks += int64(reclaimed)
	if s.env.Tracer() != nil {
		s.trace("teardown %s: reclaimed %d tasks", c.Name, reclaimed)
	}
	if rec := s.env.Recorder(); rec != nil {
		rec.Emit(obs.Event{T: int64(s.now()), Kind: obs.EvClientTeardown, Layer: obs.LayerCore,
			Track: "core:clients", Name: c.Name, A: int64(c.ID), B: int64(reclaimed)})
	}
	c.Progress.Broadcast(ctx.Env())
	s.CloseClient(c)
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

// doorbell notifies service threads of new work.
func (s *Service) doorbell(c *Client) {
	if s.sleeping > 0 {
		s.workSig.Broadcast(s.env)
	}
}

// ThreadMain is a Copier thread's body (§4.5.1). The integration
// layer runs it on a dedicated kernel thread; slot identifies the
// thread for client partitioning.
func (s *Service) ThreadMain(ctx Ctx, slot int) {
	s.activeThreads++
	// Save AVX state once per activation instead of per copy (§4.3).
	ctx.Exec(cycles.XSave)
	idle := 0
	for !s.stopped {
		if s.cfg.Mode == PollScenario && !s.scenarioActive {
			s.Stats.Sleeps++
			ctx.Block(s.activateSig)
			continue
		}
		if s.numNodes() == 1 && slot >= s.activeThreads && slot != 0 {
			// Parked by auto-scaling (flat machine only: the sharded
			// service runs a static thread per node).
			s.parked++
			ctx.Block(s.parkSig)
			s.parked--
			continue
		}
		worked := s.serveOnce(ctx, slot)
		if worked {
			idle = 0
			if slot == 0 {
				s.autoscale()
			}
			continue
		}
		idle++
		s.Stats.PollSweeps++
		ctx.Exec(cycles.PollIteration)
		if s.cfg.Mode == PollScenario {
			// Scenario-driven threads sleep as soon as queues drain
			// ("sleeps when queues are empty", §6.2.4), woken by the
			// submission doorbell.
			if idle >= 32 {
				s.sleeping++
				s.Stats.Sleeps++
				fired := ctx.BlockTimeout(s.workSig, s.cfg.SleepPeriod)
				s.sleeping--
				s.Stats.Wakeups++
				if fired {
					ctx.Exec(cycles.WakeThread)
					idle = 0
				} else {
					idle = 32
				}
			}
			continue
		}
		if s.cfg.Mode == PollNAPI && idle >= s.cfg.NAPIBudget {
			// Save SIMD state and sleep until a doorbell (§4.5.1).
			ctx.Exec(cycles.XSave)
			s.sleeping++
			s.Stats.Sleeps++
			fired := ctx.BlockTimeout(s.workSig, s.cfg.SleepPeriod)
			s.sleeping--
			s.Stats.Wakeups++
			if fired {
				// Doorbell wake (copier_awaken-style IPI).
				ctx.Exec(cycles.WakeThread)
				idle = 0
			} else {
				// Timeout wake: peek once, then go straight back to
				// sleep if still idle.
				idle = s.cfg.NAPIBudget
			}
			ctx.Exec(cycles.XSave)
		}
	}
	// Final reclaim: a client killed just before Stop must not leak
	// pins because the loop never saw it. Snapshot first — teardown
	// unregisters clients from the list being walked.
	var dying []*Client
	for _, c := range s.clients {
		if c.dying && !c.closed {
			dying = append(dying, c)
		}
	}
	for _, c := range dying {
		s.teardownClient(ctx, c)
	}
	s.activeThreads--
}

// autoscale adjusts the active thread count to keep per-thread backlog
// between LowLoad and HighLoad (§4.5.1).
func (s *Service) autoscale() {
	if s.cfg.MaxThreads <= 1 || s.numNodes() > 1 {
		// The sharded service runs a static thread per node; parking
		// a node's only thread would strand its clients.
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

// serveOnce admits new tasks, serves Sync Queues, expires lazy tasks
// and executes one CFS-picked client's slice. Reports whether any work
// was done.
func (s *Service) serveOnce(ctx Ctx, slot int) bool {
	s.brownoutEval(s.now())
	mine := s.clientsOf(slot)
	worked := false
	// Dead clients first: reclaim their state before serving anything
	// else. Collected first so that clients dying during a teardown's
	// yields wait for the next sweep.
	var dying []*Client
	for _, c := range mine {
		if c.dying && !c.closed {
			dying = append(dying, c)
		}
	}
	if len(dying) > 0 {
		for _, c := range dying {
			s.teardownClient(ctx, c)
		}
		worked = true
		mine = s.clientsOf(slot)
	}
	for _, c := range mine {
		if c.closed {
			continue
		}
		before := len(c.pending)
		c.admit(ctx, s)
		if len(c.pending) != before {
			worked = true
		}
	}
	// Sync Tasks first: kernel-mode queues, then user-mode (§4.2.2).
	for _, kmode := range []bool{true, false} {
		for _, c := range mine {
			if s.serveSyncQueue(ctx, c, kmode) {
				worked = true
			}
		}
	}
	// Finish tasks whose outstanding DMA completed since last sweep,
	// finalize tasks whose retries are exhausted, and shed admitted
	// tasks already past their SLO deadline before any engine touches
	// them (failTask/shedTask mutate the pending list, so both sets
	// are collected first).
	dnow := s.now()
	for _, c := range mine {
		var failed, late []*Task
		for _, t := range c.pending {
			if t.executed || t.aborted || t.Kind != KindCopy {
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
			s.shedTask(ctx, c, t, ErrDeadline, shedDeadline)
			worked = true
		}
		c.removeExecuted()
	}
	// Expire lazy tasks.
	now := s.now()
	for _, c := range mine {
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
	}
	// CFS pick: group with minimum vruntime, then client within
	// (§4.5.3).
	c := s.pickClient(ctx, mine)
	if c == nil {
		return worked || s.inflightDMA > 0
	}
	budget := s.cfg.CopySlice
	if s.brownout {
		// Brownout batches more aggressively: a doubled copy slice
		// amortizes scheduling and submission costs while the service
		// digs out of the backlog.
		budget *= 2
	}
	served := s.serveClient(ctx, c, budget)
	return worked || served || s.inflightDMA > 0
}

// pickClient implements the two-level CFS-by-copy-length policy.
//
//copier:noalloc
func (s *Service) pickClient(ctx Ctx, mine []*Client) *Client {
	ctx.Exec(cycles.SchedulePick)
	now := s.now()
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
// serveOnce sweep sheds it), but once dispatch begins the deadline no
// longer gates: a partially-copied task runs to completion so its pins
// and progress accounting stay coherent.
func (t *Task) dispatchable(now sim.Time) bool {
	return !t.executed && !t.aborted && !t.Lazy &&
		t.pendingErr == nil && t.retryAt <= now &&
		(t.Deadline == 0 || t.dispatched || now < t.Deadline)
}

// serveClient executes pending tasks FIFO up to budget bytes, fusing
// adjacent dependency-free tasks into piggyback rounds (§4.3). A
// small head opens an e-piggyback round capped at EPiggybackFuse,
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
		roundCap := s.cfg.EPiggybackFuse
		if s.brownout {
			roundCap *= 2
		}
		if head.Len >= s.cfg.PiggybackThreshold {
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
		// Dependencies of the head must still run first.
		s.resolveHeadDeps(ctx, c, head)
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

// resolveHeadDeps executes any earlier tasks the head truly depends
// on (it is about to run as part of a batch, bypassing
// executeWithDeps).
func (s *Service) resolveHeadDeps(ctx Ctx, c *Client, t *Task) {
	var deps []*Task
	for _, p := range c.pending {
		if p.orderIdx >= t.orderIdx || p.executed || p.aborted || p.Kind != KindCopy {
			continue
		}
		ctx.Exec(cycles.DependencyCheck)
		if s.dependsOn(p, t) {
			deps = append(deps, p)
		}
	}
	for _, p := range deps {
		s.executeWithDeps(ctx, c, p, 0, p.Len, 0)
		s.awaitInFlight(ctx, p)
	}
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
			s.Stats.SyncsServed++
			if s.env.Tracer() != nil {
				s.trace("sync %s [%#x,+%d): promote", c.Name, uint64(st.Addr), st.SyncLen)
			}
			s.promote(ctx, c, st.Addr, st.SyncLen)
		case KindAbort:
			if st.AbortDesc != nil {
				if s.env.Tracer() != nil {
					s.trace("abort %s desc [%#x,+%d)", c.Name, uint64(st.AbortDesc.Base), st.AbortDesc.Len)
				}
			} else if s.env.Tracer() != nil {
				s.trace("abort %s [%#x,+%d)", c.Name, uint64(st.Addr), st.SyncLen)
			}
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
		if t.executed || t.aborted || t.Kind != KindCopy {
			continue
		}
		if t.Desc != nil && overlapsVA(t.Desc.Base, t.Desc.Len, addr, n) {
			targets = append(targets, t)
		} else if overlapsVA(t.Dst, t.Len, addr, n) {
			targets = append(targets, t)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].orderIdx < targets[j].orderIdx })
	for _, t := range targets {
		s.Stats.Promotions++
		// Promote only the segments covering the synced range (§4.1
		// fine-grained update; §4.4 layered absorption depends on the
		// rest of the task staying pending).
		base := t.Dst
		if t.Desc != nil {
			base = t.Desc.Base
		}
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

func overlapsVA(a mem.VA, an units.Bytes, b mem.VA, bn units.Bytes) bool {
	return overlaps(a, an, b, bn)
}

// abort discards still-queued Copy Tasks — the one bound to the
// abort's descriptor, or those whose destination intersects
// [addr, addr+n) (§4.4).
func (s *Service) abort(ctx Ctx, c *Client, st *Task) {
	for _, t := range c.pending {
		ctx.Exec(cycles.DependencyCheck)
		if t.executed || t.aborted || t.Kind != KindCopy {
			continue
		}
		match := false
		if st.AbortDesc != nil {
			match = t.Desc == st.AbortDesc
		} else {
			match = overlapsVA(t.Dst, t.Len, st.Addr, st.SyncLen)
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
					s.Stats.KFuncsRun++
				} else {
					c.U.handlers = append(c.U.handlers, h)
					s.Stats.UFuncsQueued++
				}
			}
		}
	}
	c.removeExecuted()
	c.Progress.Broadcast(ctx.Env())
}
