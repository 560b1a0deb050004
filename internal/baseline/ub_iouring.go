package baseline

import (
	"copier/internal/cycles"
	"copier/internal/kernel"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// UB models Userspace Bypass (OSDI '23): syscall-adjacent user code is
// lifted into the kernel, eliminating trap/return crossings, at the
// price of slowed memory accesses in the bypassed code (binary
// translation + SFI checks). Fig. 10/11: "UB's effect diminishes as
// data size increases since copy dominates the costs" and "UB can only
// optimize SETs and GETs of <=4KB because it slows down the program's
// memory access".
type UB struct {
	// SlowdownNum/Den is the memory-access multiplier of bypassed
	// user code (~1.3x).
	SlowdownNum, SlowdownDen int64
}

// NewUB returns the Userspace Bypass model.
func NewUB() *UB {
	return &UB{SlowdownNum: 13, SlowdownDen: 10}
}

// Slow scales a bypassed compute cost by the slowdown factor.
func (u *UB) Slow(d sim.Time) sim.Time {
	return sim.Time(int64(d) * u.SlowdownNum / u.SlowdownDen)
}

// SendNT is send(2) under UB: no trap/return (the caller already runs
// in kernel context), same kernel work as Socket.Send's synchronous
// path.
func (u *UB) SendNT(t *kernel.Thread, s *kernel.Socket, buf mem.VA, n units.Bytes) error {
	t.Exec(cycles.SocketBookkeeping)
	return s.SendSkb(t, nil, t.Proc.AS, buf, n)
}

// RecvNT is recv(2) under UB.
func (u *UB) RecvNT(t *kernel.Thread, s *kernel.Socket, buf mem.VA, n units.Bytes) (units.Bytes, error) {
	t.Exec(cycles.SocketBookkeeping)
	return s.RecvSkb(t, nil, t.Proc.AS, buf, n, false)
}

// IOUring models io_uring with an SQPOLL kernel thread: applications
// submit SQEs without trapping; the kthread executes the socket
// operation in kernel context and posts a CQE. Batching amortizes the
// submit/reap bookkeeping and wakeups (Fig. 10's IOR-b).
type IOUring struct {
	m  *kernel.Machine
	sq []*SQE
	// completions signal per-SQE completion.
	work *sim.Signal
	done *sim.Signal

	stopped bool
}

// SQE is one submission-queue entry.
type SQE struct {
	Send  bool
	Sock  *kernel.Socket
	Proc  *kernel.Process
	Buf   mem.VA
	Len   units.Bytes
	Done  bool
	Got   units.Bytes
	Err   error
	owner *IOUring
}

// NewIOUring starts an io_uring instance with its SQPOLL kthread.
func NewIOUring(m *kernel.Machine) *IOUring {
	u := &IOUring{
		m:    m,
		work: sim.NewSignal("iouring-work"),
		done: sim.NewSignal("iouring-done"),
	}
	m.Spawn(nil, "iou-sqpoll", func(t *kernel.Thread) {
		for !u.stopped {
			if len(u.sq) == 0 {
				t.Block(u.work)
				continue
			}
			sqe := u.sq[0]
			u.sq = u.sq[1:]
			u.exec(t, sqe)
			sqe.Done = true
			u.done.Broadcast(m.Env)
		}
	})
	return u
}

// Stop terminates the SQPOLL thread.
func (u *IOUring) Stop() {
	u.stopped = true
	u.work.Broadcast(u.m.Env)
}

func (u *IOUring) exec(t *kernel.Thread, sqe *SQE) {
	// The kthread performs the op in kernel context: no trap/return,
	// but all other socket costs apply. For a Copier-attached process
	// the copy goes through its attachment (Fig. 10's Copier+batch
	// series: submitted async and synced by the NIC driver or the app),
	// with no size fallback.
	a := u.m.Attachment(sqe.Proc)
	t.Exec(cycles.SocketBookkeeping)
	if sqe.Send {
		sqe.Err = sqe.Sock.SendSkb(t, a, sqe.Proc.AS, sqe.Buf, sqe.Len)
		return
	}
	sqe.Got, sqe.Err = sqe.Sock.RecvSkb(t, a, sqe.Proc.AS, sqe.Buf, sqe.Len, false)
}

// Submit enqueues entries without trapping (shared-memory SQ write +
// doorbell check).
func (u *IOUring) Submit(t *kernel.Thread, sqes ...*SQE) {
	for _, s := range sqes {
		s.owner = u
		t.Exec(cycles.SubmitTask)
		u.sq = append(u.sq, s)
	}
	u.work.Broadcast(u.m.Env)
}

// WaitAll blocks until every given SQE completed, reaping CQEs.
func (u *IOUring) WaitAll(t *kernel.Thread, sqes ...*SQE) {
	for {
		all := true
		for _, s := range sqes {
			if !s.Done {
				all = false
				break
			}
		}
		if all {
			t.Exec(sim.Time(len(sqes)) * 20) // CQE reap
			return
		}
		t.Block(u.done)
	}
}
