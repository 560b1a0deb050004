// Package kernel implements the simulated machine and operating
// system substrate the Copier reproduction runs on: CPU cores with a
// preemptive round-robin scheduler, processes and threads, the syscall
// boundary, a loopback network stack with socket buffers, Binder-style
// IPC, the copy-on-write fault handler, and cgroups.
//
// The package deliberately mirrors the shape of the Linux subsystems
// the paper modifies (§5.2) so that Copier integrations sit in the
// same places: recv()/send() copy between socket buffers and user
// memory, Binder copies through a kernel buffer mapped into the
// server, and the CoW handler copies pages during write faults.
package kernel

import (
	"fmt"
	"strconv"

	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/topo"
)

// quantum is the preemption quantum in cycles (~70us at 2.9GHz).
const quantum sim.Time = 200_000

// Machine is one simulated host: cores, physical memory, processes and
// devices.
type Machine struct {
	Env  *sim.Env
	Phys *mem.PhysMem

	cores []*Core
	runq  []*Thread // runnable threads without a core, FIFO

	// KernelAS is the kernel's address space (socket buffers, binder
	// buffers, page cache live here).
	KernelAS *mem.AddrSpace

	procs   []*Process
	nextPID int
	nextTID int

	// EnergyPerBusyCycle and EnergyPerIdleCycle weight the energy
	// model used by the smartphone experiments (arbitrary units).
	EnergyPerBusyCycle float64
	EnergyPerIdleCycle float64

	// CopyCycles accumulates cycles spent in synchronous copies
	// (KernelCopy, UserCopy, CoW breaks) — the numerator of the
	// Fig. 2 copy-share analysis.
	CopyCycles int64

	// stageBuf stages the bytes of every synchronous kernel copy (see
	// stage).
	stageBuf []byte

	// copier is the installed Copier integration, if any.
	copier *copierState

	// net is the machine's loopback network, created lazily.
	net *Network

	// topo is the machine's NUMA topology (nil: one node).
	topo *topo.Topology
}

// Config sizes a machine. Topo partitions physical memory into
// per-node frame ranges and pins each core to its node; when set, it
// also derives Cores and MemBytes (explicit values win if both are
// given). A nil Topo is the single-node topology: the flat machine.
type Config struct {
	Cores    int
	MemBytes int64
	Topo     *topo.Topology
	// Env, when set, hosts the machine on an existing simulation
	// environment instead of a fresh sim.NewEnv. Pooled experiment
	// cells (sim.RunJobs) use this to wire the machine to a job's
	// private recorder.
	Env *sim.Env
}

// NewMachine builds a machine with the given core count and memory.
func NewMachine(cfg Config) *Machine {
	if cfg.Topo != nil {
		if cfg.Cores <= 0 {
			cfg.Cores = cfg.Topo.TotalCores()
		}
		if cfg.MemBytes <= 0 {
			cfg.MemBytes = cfg.Topo.TotalMem()
		}
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 256 << 20
	}
	env := cfg.Env
	if env == nil {
		env = sim.NewEnv()
	}
	m := &Machine{
		Env:                env,
		Phys:               mem.NewPhysMem(cfg.MemBytes),
		nextPID:            1,
		nextTID:            1,
		EnergyPerBusyCycle: 1.0,
		EnergyPerIdleCycle: 0.05,
		topo:               cfg.Topo,
	}
	if err := m.Phys.ConfigureNodes(cfg.Topo.Nodes()); err != nil {
		panic(err)
	}
	m.KernelAS = mem.NewAddrSpace(m.Phys)
	for i := 0; i < cfg.Cores; i++ {
		node := 0
		if cfg.Topo != nil && i < cfg.Topo.TotalCores() {
			node = cfg.Topo.NodeOfCore(i)
		}
		m.cores = append(m.cores, &Core{id: i, node: node, track: "kernel:core" + strconv.Itoa(i)})
	}
	return m
}

// Topo returns the machine's topology as configured: nil when
// Config.Topo was unset, which every layer reads as one node.
func (m *Machine) Topo() *topo.Topology { return m.topo }

// Core is one CPU core.
type Core struct {
	id int
	// node is the NUMA node the core belongs to (0 on a flat machine).
	node int
	cur  *Thread
	// reservedFor, when non-nil, dedicates the core to one thread
	// (Copier's dedicated copy core, §6: "Copier uses one dedicated
	// core to copy").
	reservedFor *Thread
	// lastThread is used to charge context-switch costs on handoff.
	lastThread *Thread
	// BusyCycles accumulates cycles spent running threads.
	BusyCycles int64
	// track is the core's observability timeline name; grantedAt is
	// when the current occupant was granted the core.
	track     string
	grantedAt sim.Time
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Node returns the core's NUMA node (0 on a flat machine).
func (c *Core) Node() int { return c.node }

// Cores returns the machine's cores.
func (m *Machine) Cores() []*Core { return m.cores }

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Run runs the simulation until the event heap drains or the clock
// reaches until.
func (m *Machine) Run(until sim.Time) error { return m.Env.Run(until) }

// RunApps runs the simulation until every given thread has finished
// (or no further progress is possible), then stops the Copier service
// if installed and drains remaining events. Idle service threads
// reschedule sleep timeouts forever, so Run(Infinity) would never
// return on a machine with Copier installed — use this instead.
func (m *Machine) RunApps(threads ...*Thread) error {
	const slice = 50_000_000 // ~17ms of virtual time per step
	allDead := func() bool {
		for _, t := range threads {
			if !t.dead {
				return false
			}
		}
		return true
	}
	for !allDead() {
		before := m.Env.Now()
		err := m.Env.Run(before + slice)
		if err != nil {
			if _, ok := err.(*sim.DeadlockError); ok && allDead() {
				break // only service threads remain parked
			}
			return err
		}
		if m.Env.Now() == before && !allDead() {
			return fmt.Errorf("kernel: no progress at t=%d with live app threads", before)
		}
	}
	if m.copier != nil {
		m.copier.svc.Stop()
	}
	if err := m.Env.Run(m.Env.Now() + slice); err != nil {
		if _, ok := err.(*sim.DeadlockError); !ok {
			return err
		}
	}
	return nil
}

// Now returns the machine's virtual time.
func (m *Machine) Now() sim.Time { return m.Env.Now() }

// DedicateCore reserves core id for thread t (and makes t run there).
func (m *Machine) DedicateCore(id int, t *Thread) {
	c := m.cores[id]
	c.reservedFor = t
	t.affinity = id
}

// grant puts t on core c and wakes it.
func (m *Machine) grant(c *Core, t *Thread) {
	c.cur = t
	t.core = c
	c.grantedAt = m.Env.Now()
	switchCost := sim.Time(0)
	if c.lastThread != nil && c.lastThread != t {
		switchCost = cycles.ContextSwitch
	}
	c.lastThread = t
	t.pendingSwitchCost = switchCost
	t.granted.Broadcast(m.Env)
}

// releaseCore frees t's core and grants it to the next compatible
// runnable thread.
func (m *Machine) releaseCore(t *Thread) {
	c := t.core
	if c == nil {
		return
	}
	m.Env.Recorder().On(c.track, obs.EvThreadRun, int64(c.grantedAt), int64(m.Env.Now()-c.grantedAt), t.Name, int64(t.TID), 0)
	t.core = nil
	c.cur = nil
	// Find the first queued thread that may use this core.
	for i, w := range m.runq {
		if c.reservedFor == nil || c.reservedFor == w {
			if w.affinity >= 0 && w.affinity != c.id {
				continue
			}
			m.runq = append(m.runq[:i], m.runq[i+1:]...)
			m.grant(c, w)
			return
		}
	}
}

// acquireCore blocks t until it holds a core.
func (t *Thread) acquireCore() {
	m := t.m
	if t.core != nil {
		return
	}
	if c := t.eligibleFreeCore(); c != nil {
		m.grant(c, t)
		t.core = c
		t.chargeSwitch()
		return
	}
	m.runq = append(m.runq, t)
	t.granted.Wait(t.proc)
	t.chargeSwitch()
}

func (t *Thread) eligibleFreeCore() *Core {
	m := t.m
	if t.affinity >= 0 {
		c := m.cores[t.affinity]
		if c.cur == nil && (c.reservedFor == nil || c.reservedFor == t) {
			return c
		}
		return nil
	}
	for _, c := range m.cores {
		if c.cur == nil && (c.reservedFor == nil || c.reservedFor == t) {
			return c
		}
	}
	return nil
}

func (t *Thread) chargeSwitch() {
	if t.pendingSwitchCost > 0 {
		d := t.pendingSwitchCost
		t.pendingSwitchCost = 0
		t.proc.Wait(d)
		t.Charge(d)
	}
}

// Process is a simulated OS process: an address space plus threads.
type Process struct {
	PID  int
	Name string
	AS   *mem.AddrSpace
	m    *Machine

	// Node is the process's NUMA home node (NewProcessOn); 0 on a
	// flat machine. Frame allocations prefer this node and the Copier
	// attachment inherits it.
	Node int

	threads []*Thread

	// CGroup the process is accounted to (may be nil).
	CGroup *CGroup
}

// NewProcess creates a process with a fresh address space.
func (m *Machine) NewProcess(name string) *Process {
	p := &Process{PID: m.nextPID, Name: name, AS: mem.NewAddrSpace(m.Phys), m: m}
	m.nextPID++
	m.procs = append(m.procs, p)
	return p
}

// NewProcessOn creates a process homed on a NUMA node: its address
// space prefers that node's frames and AttachCopier hands the client
// to that node's service shard. Panics if the node is out of range
// for the machine's topology.
func (m *Machine) NewProcessOn(name string, node int) *Process {
	if node < 0 || node >= m.topo.Nodes() {
		panic("kernel: NewProcessOn node out of range")
	}
	p := m.NewProcess(name)
	p.Node = node
	p.AS.SetHomeNode(node)
	return p
}

// ForkProcess clones p copy-on-write, as fork(2) does. The child
// inherits p's NUMA home.
func (m *Machine) ForkProcess(p *Process, name string) *Process {
	c := &Process{PID: m.nextPID, Name: name, AS: p.AS.Fork(), m: m, CGroup: p.CGroup, Node: p.Node}
	m.nextPID++
	m.procs = append(m.procs, c)
	return c
}

// Machine returns the owning machine.
func (p *Process) Machine() *Machine { return p.m }

// KillProcess simulates abrupt process death (exit(2) or a fatal
// signal): the process's Copier client, if attached, is marked dead so
// the service threads run the teardown protocol — drain its CSH rings,
// wait out in-flight DMA, unpin its pages, fail its descriptors — and
// the process leaves the machine's process table. Reclaim its memory
// afterwards with ReapProcess (once teardown has dropped the pins).
// The caller is responsible for the process's threads having exited
// (or never touching process state again).
func (m *Machine) KillProcess(p *Process) {
	if m.copier != nil {
		if a := m.copier.attach[p.PID]; a != nil {
			m.copier.svc.KillClient(a.Client)
			delete(m.copier.attach, p.PID)
		}
	}
	for i, x := range m.procs {
		if x == p {
			m.procs = append(m.procs[:i], m.procs[i+1:]...)
			break
		}
	}
}

// ReapProcess returns a dead process's memory to the allocator. It
// fails while the Copier service still holds pins on the address
// space — i.e. before client teardown has finished.
func (m *Machine) ReapProcess(p *Process) error {
	return p.AS.ReleaseAll()
}

// Thread is a simulated kernel-schedulable thread. It satisfies the
// execution-context interface Copier's service and library charge time
// through.
type Thread struct {
	TID  int
	Name string
	Proc *Process // nil for pure kernel threads
	m    *Machine

	proc    *sim.Proc
	core    *Core
	granted *sim.Signal
	// affinity pins the thread to one core id; -1 means any.
	affinity          int
	pendingSwitchCost sim.Time
	// noPreempt marks threads that never yield on quantum expiry
	// (dedicated-core service threads).
	noPreempt bool

	// BusyCycles is total CPU consumed by this thread.
	BusyCycles int64

	done *sim.Signal
	dead bool
}

// Spawn creates and starts a thread in process p (nil for a kernel
// thread) running fn.
func (m *Machine) Spawn(p *Process, name string, fn func(t *Thread)) *Thread {
	t := &Thread{
		TID:      m.nextTID,
		Name:     name,
		Proc:     p,
		m:        m,
		granted:  sim.NewSignal("grant:" + name),
		done:     sim.NewSignal("done:" + name),
		affinity: -1,
	}
	m.nextTID++
	if p != nil {
		p.threads = append(p.threads, t)
	}
	t.proc = m.Env.Go(name, func(sp *sim.Proc) {
		t.acquireCore()
		fn(t)
		t.m.releaseCore(t)
		t.dead = true
		t.done.Broadcast(m.Env)
	})
	return t
}

// Join blocks until other terminates.
func (t *Thread) Join(other *Thread) {
	if other.dead {
		return
	}
	t.Block(other.done)
}

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Env returns the simulation environment.
func (t *Thread) Env() *sim.Env { return t.m.Env }

// Now returns virtual time.
func (t *Thread) Now() sim.Time { return t.proc.Now() }

// SetNoPreempt marks the thread as never yielding on quantum expiry.
func (t *Thread) SetNoPreempt(v bool) { t.noPreempt = v }

// Exec consumes d cycles of CPU time, holding a core, yielding to
// other runnable threads at quantum boundaries.
func (t *Thread) Exec(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("kernel: negative exec %d", d))
	}
	t.acquireCore()
	for d > 0 {
		chunk := d
		if !t.noPreempt && chunk > quantum {
			chunk = quantum
		}
		t.proc.Wait(chunk)
		t.Charge(chunk)
		d -= chunk
		if d > 0 && !t.noPreempt && len(t.m.runq) > 0 {
			// Quantum expired with waiters: round-robin.
			t.m.releaseCore(t)
			t.acquireCore()
		}
	}
}

// Charge books d cycles of CPU time on the thread and its core, as
// Exec does once each of its waits ends. For a thread that holds its
// core and is not preempted inside the Exec (copierd), Exec(d) is a
// wait of d cycles followed by Charge(d): the Copier service's poll
// loop, which waits in event context, charges through it.
func (t *Thread) Charge(d sim.Time) {
	t.BusyCycles += int64(d)
	t.core.BusyCycles += int64(d)
}

// Block releases the CPU and sleeps until s broadcasts, then re-acquires
// a core.
func (t *Thread) Block(s *sim.Signal) {
	t.m.releaseCore(t)
	s.Wait(t.proc)
	t.acquireCore()
}

// BlockTimeout releases the CPU and sleeps until s broadcasts or d
// elapses, whichever comes first. Reports whether the signal fired.
func (t *Thread) BlockTimeout(s *sim.Signal, d sim.Time) bool {
	t.m.releaseCore(t)
	fired := s.WaitTimeout(t.proc, d)
	t.acquireCore()
	return fired
}

// SpinUntil busy-polls for a broadcast of s: the thread keeps its core
// (burning cycles, visible to CPU-contention experiments) until s
// fires.
func (t *Thread) SpinUntil(s *sim.Signal) {
	t.acquireCore()
	start := t.proc.Now()
	s.Wait(t.proc)
	t.Charge(t.proc.Now() - start)
}

// Sleep consumes no CPU for d cycles (the thread releases its core).
func (t *Thread) Sleep(d sim.Time) {
	t.m.releaseCore(t)
	t.proc.Wait(d)
	t.acquireCore()
}

// Energy reports total energy in model units across cores up to now.
func (m *Machine) Energy() float64 {
	var busy int64
	for _, c := range m.cores {
		busy += c.BusyCycles
	}
	totalCoreCycles := int64(m.Now()) * int64(len(m.cores))
	idle := totalCoreCycles - busy
	if idle < 0 {
		idle = 0
	}
	return float64(busy)*m.EnergyPerBusyCycle + float64(idle)*m.EnergyPerIdleCycle
}

// CGroup is a control group carrying the copier controller's share
// weight (§4.5.2).
type CGroup struct {
	Name string
	// CopierShares is copier.shares: the relative weight of this
	// group when competing for Copier's copy bandwidth.
	CopierShares int64
}

// NewCGroup creates a control group with the given copier.shares.
func (m *Machine) NewCGroup(name string, copierShares int64) *CGroup {
	if copierShares <= 0 {
		copierShares = 100
	}
	return &CGroup{Name: name, CopierShares: copierShares}
}
