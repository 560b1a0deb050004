package kernel

import (
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/libcopier"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/units"
)

// CopierAttachment wires a process to the Copier service: the client
// with its paired queues and the per-process libCopier state shared by
// user code and the kernel services acting on the process's behalf.
type CopierAttachment struct {
	Client *core.Client
	Lib    *libcopier.Lib
}

// copierState is per-machine Copier integration state.
type copierState struct {
	svc     *core.Service
	attach  map[int]*CopierAttachment // by PID
	threads []*Thread
}

// InstallCopier creates a Copier service for the machine and runs
// nthreads service threads on dedicated cores starting at core
// firstCore (§6: "Copier uses one dedicated core to copy").
func (m *Machine) InstallCopier(cfg core.Config, nthreads, firstCore int) *core.Service {
	if cfg.Topo == nil {
		// The service shards to match the machine unless the caller
		// sets a topology explicitly.
		cfg.Topo = m.topo
	}
	svc := core.NewService(m.Env, m.Phys, cfg)
	svc.SetKernelAS(m.KernelAS)
	m.copier = &copierState{svc: svc, attach: make(map[int]*CopierAttachment)}
	spawn := func(slot int) {
		coreID := firstCore + slot
		if coreID >= len(m.cores) {
			return
		}
		th := m.Spawn(nil, "copierd", func(t *Thread) {
			t.SetNoPreempt(true)
			svc.ThreadMain(t, slot)
		})
		m.DedicateCore(coreID, th)
		m.copier.threads = append(m.copier.threads, th)
	}
	svc.SetSpawnThread(spawn)
	for i := 0; i < nthreads; i++ {
		spawn(i)
	}
	return svc
}

// Copier returns the installed service, or nil.
func (m *Machine) Copier() *core.Service {
	if m.copier == nil {
		return nil
	}
	return m.copier.svc
}

// AttachCopier registers process p as a Copier client
// (copier_create_mapped_queue, Table 2).
func (m *Machine) AttachCopier(p *Process) *CopierAttachment {
	if m.copier == nil {
		panic("kernel: Copier not installed")
	}
	var group *core.CGroupAccount
	if p.CGroup != nil {
		group = m.copier.svc.Group(p.CGroup.Name, p.CGroup.CopierShares)
	}
	client := m.copier.svc.NewClientOn(p.Name, p.AS, m.KernelAS, group, p.Node)
	a := &CopierAttachment{Client: client, Lib: libcopier.New(client)}
	m.copier.attach[p.PID] = a
	return a
}

// Attachment returns p's Copier attachment, or nil when the process
// runs without Copier (the baseline path).
func (m *Machine) Attachment(p *Process) *CopierAttachment {
	if m.copier == nil || p == nil {
		return nil
	}
	return m.copier.attach[p.PID]
}

// copierFor is the attachment a Copier-integrated operation copies
// through: the process's when copier is set, nil (the synchronous
// path) when it is not or the process has no attachment.
func (t *Thread) copierFor(copier bool) *CopierAttachment {
	if !copier {
		return nil
	}
	return t.m.Attachment(t.Proc)
}

// Syscall wraps fn with the user→kernel→user boundary costs and, when
// the process is a Copier client, the cross-queue Barrier Tasks at
// trap and return (§4.2.1).
func (t *Thread) Syscall(name string, fn func()) {
	start := t.Now()
	t.Exec(cycles.SyscallTrap)
	a := t.m.Attachment(t.Proc)
	if a != nil {
		t.Exec(cycles.SubmitBarrier)
		a.Client.SubmitBarrier(false)
	}
	fn()
	if a != nil {
		t.Exec(cycles.SubmitBarrier)
		a.Client.SubmitBarrier(true)
	}
	t.Exec(cycles.SyscallReturn)
	t.m.Env.Recorder().On("kernel:syscalls", obs.EvTrapReturn, int64(start), int64(t.Now()-start), name, int64(t.TID), 0)
}

// stage returns an n-byte buffer for a synchronous copy to read its
// whole source into before it writes the destination, so overlapping
// ranges copy as memmove does. It is one buffer per machine, grown to
// the largest copy: nothing may yield between filling and draining it.
func (m *Machine) stage(n units.Bytes) []byte {
	if int(n) > cap(m.stageBuf) {
		m.stageBuf = make([]byte, n)
	}
	return m.stageBuf[:n]
}

// KernelCopy is the kernel's synchronous copy between address spaces
// using ERMS (copy_to_user/copy_from_user in the baseline). It
// resolves faults on the fly, charging their costs.
func (t *Thread) KernelCopy(dstAS *mem.AddrSpace, dst mem.VA, srcAS *mem.AddrSpace, src mem.VA, n units.Bytes) error {
	if err := t.resolveRange(dstAS, dst, n, true); err != nil {
		return err
	}
	if err := t.resolveRange(srcAS, src, n, false); err != nil {
		return err
	}
	buf := t.m.stage(n)
	if err := srcAS.ReadAt(src, buf); err != nil {
		return err
	}
	if err := dstAS.WriteAt(dst, buf); err != nil {
		return err
	}
	c := cycles.SyncCopyCost(cycles.UnitERMS, n)
	t.Exec(c)
	t.m.CopyCycles += int64(c)
	return nil
}

// resolveRange faults in a VA range in kernel context, charging fault
// costs.
func (t *Thread) resolveRange(as *mem.AddrSpace, va mem.VA, n units.Bytes, write bool) error {
	for pva := va & ^mem.VA(mem.PageSize-1); pva < va+mem.VA(n); pva += mem.PageSize {
		kind := as.Classify(pva, write)
		if kind == mem.FaultNone {
			continue
		}
		t.Exec(cycles.PageFault)
		k, copied, err := as.HandleFault(pva, write)
		if err != nil {
			return err
		}
		if k == mem.FaultDemandZero {
			t.Exec(cycles.PageAllocZero)
		}
		if copied > 0 {
			t.Exec(cycles.PageAllocZero + cycles.SyncCopyCost(cycles.UnitERMS, copied))
		}
	}
	return nil
}

// UserCopy is an in-process synchronous copy in user context with
// glibc's AVX memcpy; faults resolve via the kernel handler.
func (t *Thread) UserCopy(dst, src mem.VA, n units.Bytes) error {
	as := t.Proc.AS
	if err := t.resolveRange(as, dst, n, true); err != nil {
		return err
	}
	if err := t.resolveRange(as, src, n, false); err != nil {
		return err
	}
	buf := t.m.stage(n)
	if err := as.ReadAt(src, buf); err != nil {
		return err
	}
	if err := as.WriteAt(dst, buf); err != nil {
		return err
	}
	c := cycles.SyncCopyCost(cycles.UnitAVX, n)
	t.Exec(c)
	t.m.CopyCycles += int64(c)
	return nil
}
