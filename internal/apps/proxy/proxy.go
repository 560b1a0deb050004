// Package proxy models the TinyProxy workload of §6.2.2: a proxy
// forwards HTTP-style messages between clients and upstream echo
// servers, touching only the request line and headers. Three copies
// are involved per hop — recv kernel→user, an internal reorganize
// copy, and send user→kernel. Copier folds them into a single
// short-circuit kernel→kernel copy via lazy tasks + absorption + abort
// (§4.4); zIO can only eliminate the user-space copy.
package proxy

import (
	"errors"
	"fmt"
	"sort"

	"copier/internal/baseline"
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/kernel"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// Mode selects the copy backend (Fig. 12-a series).
type Mode int

const (
	ModeSync Mode = iota
	ModeCopier
	ModeZIO
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "baseline"
	case ModeCopier:
		return "copier"
	case ModeZIO:
		return "zIO"
	}
	return "mode?"
}

// headerLen is the portion of each message the proxy actually reads
// (request line + headers).
const headerLen = 128

// Config parameterizes one run.
type Config struct {
	Mode    Mode
	MsgSize units.Bytes
	// Flows is the number of concurrent client↔upstream pairs.
	Flows int
	// MsgsPerFlow bounds the run.
	MsgsPerFlow int
	// Threads is the number of proxy worker threads (Fig. 12-b
	// scalability); 0 = 1.
	Threads int
	Cores   int
	// CopierThreads is the Copier service thread count (per-thread
	// queues at scale, §5.1/§6.3.2); 0 = 1.
	CopierThreads int
	// CopierConfig overrides the service config (ablations).
	CopierConfig *core.Config
	// Env, when set, hosts the run on an existing simulation
	// environment (pooled experiment cells); nil = fresh environment.
	Env *sim.Env
}

// Result carries throughput metrics (Fig. 12-a reports MPS).
type Result struct {
	Elapsed   sim.Time
	Messages  int
	Latencies []sim.Time
	Stats     core.Stats
}

// MPS returns messages forwarded per virtual second.
func (r Result) MPS() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Messages) / (cycles.ToNanoseconds(r.Elapsed) / 1e9)
}

// P50 returns the median end-to-end latency.
func (r Result) P50() sim.Time {
	if len(r.Latencies) == 0 {
		return 0
	}
	ls := append([]sim.Time(nil), r.Latencies...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls[len(ls)/2]
}

// Run executes one proxy experiment: clients send messages through
// the proxy to upstream echo servers; the proxy forwards both
// directions. We measure the client→upstream direction's throughput.
func Run(cfg Config) Result {
	if cfg.Flows == 0 {
		cfg.Flows = 4
	}
	if cfg.MsgsPerFlow == 0 {
		cfg.MsgsPerFlow = 20
	}
	threads := cfg.Threads
	if threads == 0 {
		threads = 1
	}
	cores := cfg.Cores
	if cores == 0 {
		cores = cfg.Flows*2 + threads + 2
	}
	svcThreads := cfg.CopierThreads
	if svcThreads == 0 {
		svcThreads = 1
	}
	m := kernel.NewMachine(kernel.Config{Cores: cores + svcThreads - 1, MemBytes: 64 << 20, Env: cfg.Env})
	ccfg := core.DefaultConfig()
	if cfg.CopierConfig != nil {
		ccfg = *cfg.CopierConfig
	}
	if ccfg.MaxThreads < svcThreads {
		ccfg.MaxThreads = svcThreads
	}
	m.InstallCopier(ccfg, svcThreads, cores-1)

	proxyProc := m.NewProcess("tinyproxy")
	var attach *kernel.CopierAttachment
	if cfg.Mode == ModeCopier {
		attach = m.AttachCopier(proxyProc)
	}
	var zio *baseline.ZIO
	if cfg.Mode == ModeZIO {
		zio = baseline.NewZIO(m, 16<<10) // zIO needs >=16KB (§6.2.2)
	}

	flows := make([]flowRef, cfg.Flows)
	notify := sim.NewSignal("proxy-epoll")
	var proxSocks []*kernel.Socket
	for i := range flows {
		pc, cs := m.Net().SocketPair(fmt.Sprintf("p-c%d", i), fmt.Sprintf("c%d", i))
		pu, us := m.Net().SocketPair(fmt.Sprintf("p-u%d", i), fmt.Sprintf("u%d", i))
		pc.SetReadyNotify(notify)
		flows[i] = flowRef{fromClient: pc, toUpstream: pu, clientSock: cs, upSock: us}
		proxSocks = append(proxSocks, pc)
	}

	total := cfg.Flows * cfg.MsgsPerFlow
	// Proxy worker threads share the flow set.
	forwarded := 0
	sockFlow := make(map[*kernel.Socket]*flowRef)
	for i := range flows {
		sockFlow[flows[i].fromClient] = &flows[i]
	}
	var workers []*kernel.Thread
	for w := 0; w < threads; w++ {
		ibuf := mustBuf(proxyProc.AS, cfg.MsgSize+256)
		mbuf := mustBuf(proxyProc.AS, cfg.MsgSize+256)
		th := m.Spawn(proxyProc, fmt.Sprintf("proxy%d", w), func(t *kernel.Thread) {
			for forwarded < total {
				s := kernel.WaitAnyReadable(t, notify, proxSocks)
				if s == nil {
					return
				}
				n := s.PeekLen()
				if n == 0 {
					continue
				}
				forwarded++
				forward(t, cfg, attach, zio, sockFlow[s], ibuf, mbuf, n)
			}
		})
		workers = append(workers, th)
	}

	// Upstream echo servers: read, discard.
	var ups []*kernel.Thread
	var lastDelivery sim.Time
	for i := range flows {
		f := &flows[i]
		p := m.NewProcess(fmt.Sprintf("upstream%d", i))
		rbuf := mustBuf(p.AS, cfg.MsgSize+256)
		th := m.Spawn(p, fmt.Sprintf("up%d", i), func(t *kernel.Thread) {
			for j := 0; j < cfg.MsgsPerFlow; j++ {
				got, err := f.upSock.Recv(t, rbuf, cfg.MsgSize+256, false)
				if err != nil || got == 0 {
					return
				}
				// Verify the payload pattern survived forwarding.
				var b [2]byte
				if err := p.AS.ReadAt(rbuf+mem.VA(got-1), b[:1]); err != nil {
					panic(err)
				}
				if b[0] != payloadByte(int(got-1)) {
					panic(fmt.Sprintf("proxy corrupted byte %d: %#x", got-1, b[0]))
				}
			}
			if t.Now() > lastDelivery {
				lastDelivery = t.Now()
			}
		})
		ups = append(ups, th)
	}

	// Clients: closed loop with a small think time.
	var clients []*kernel.Thread
	var lats []sim.Time
	start := m.Now()
	for i := range flows {
		f := &flows[i]
		p := m.NewProcess(fmt.Sprintf("client%d", i))
		sbuf := mustBuf(p.AS, cfg.MsgSize)
		writePayload(p.AS, sbuf, cfg.MsgSize)
		th := m.Spawn(p, fmt.Sprintf("cl%d", i), func(t *kernel.Thread) {
			for j := 0; j < cfg.MsgsPerFlow; j++ {
				s0 := t.Now()
				if err := f.clientSock.Send(t, sbuf, cfg.MsgSize, false); err != nil {
					return
				}
				lats = append(lats, t.Now()-s0)
				t.Exec(2000)
			}
		})
		clients = append(clients, th)
	}

	all := append(append(workers, ups...), clients...)
	if err := m.RunApps(all...); err != nil {
		panic(err)
	}
	res := Result{Elapsed: lastDelivery - start, Messages: total, Latencies: lats}
	if m.Copier() != nil {
		res.Stats = m.Copier().Stats
	}
	return res
}

// forward relays one message from the client socket to the upstream.
func forward(t *kernel.Thread, cfg Config, a *kernel.CopierAttachment, zio *baseline.ZIO, f *flowRef, ibuf, mbuf mem.VA, n units.Bytes) {
	switch cfg.Mode {
	case ModeCopier:
		// recv as a lazy copy: the message body is never read by the
		// proxy (§4.4's proxy example).
		recvLazy(t, a, f.fromClient, ibuf, n)
		// Routing decision reads only the header.
		if err := a.Lib.Csync(t, ibuf, min(headerLen, n)); err != nil {
			panic(err)
		}
		t.Exec(cycles.Mul(min(headerLen, n), cycles.ParseByteNum, cycles.ParseByteDen))
		// No reorganize copy: send straight from ibuf. The send's
		// kernel task absorbs the unexecuted lazy remainder —
		// kernel→kernel short-circuit.
		if err := f.toUpstream.Send(t, ibuf, n, true); err != nil {
			panic(err)
		}
		// Discard the rest of the lazy recv copy (§4.4 abort).
		a.Lib.Abort(t, ibuf, n)
	case ModeZIO:
		// Re-own the donated pages of the previous message without
		// copying: recv overwrites them completely.
		if err := zio.PrepareOverwrite(t, ibuf, n); err != nil {
			panic(err)
		}
		if _, err := f.fromClient.Recv(t, ibuf, n, false); err != nil {
			panic(err)
		}
		t.Exec(cycles.Mul(min(headerLen, n), cycles.ParseByteNum, cycles.ParseByteDen))
		// Internal reorganize copy — zIO can intercept this one
		// (user-space only).
		if err := zio.Memcpy(t, mbuf, ibuf, n); err != nil {
			panic(err)
		}
		if err := f.toUpstream.Send(t, mbuf, n, false); err != nil {
			panic(err)
		}
	default:
		if _, err := f.fromClient.Recv(t, ibuf, n, false); err != nil {
			panic(err)
		}
		t.Exec(cycles.Mul(min(headerLen, n), cycles.ParseByteNum, cycles.ParseByteDen))
		if err := t.UserCopy(mbuf, ibuf, n); err != nil {
			panic(err)
		}
		if err := f.toUpstream.Send(t, mbuf, n, false); err != nil {
			panic(err)
		}
	}
}

// flowRef is one client↔upstream forwarding pair.
type flowRef struct {
	fromClient *kernel.Socket // proxy side facing the client
	toUpstream *kernel.Socket // proxy side facing the upstream
	clientSock *kernel.Socket
	upSock     *kernel.Socket
}

// recvLazy is recv(2) on the Copier path with the copy task marked
// lazy.
func recvLazy(t *kernel.Thread, a *kernel.CopierAttachment, s *kernel.Socket, buf mem.VA, n units.Bytes) {
	t.Syscall("recv", func() {
		t.Exec(cycles.SocketBookkeeping)
		if _, err := s.RecvSkb(t, a, t.Proc.AS, buf, n, true); err != nil && !errors.Is(err, kernel.ErrClosed) {
			panic(err)
		}
	})
}

func writePayload(as *mem.AddrSpace, va mem.VA, n units.Bytes) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = payloadByte(i)
	}
	if err := as.WriteAt(va, buf); err != nil {
		panic(err)
	}
}

func payloadByte(i int) byte { return byte(i*131 + 17) }

func mustBuf(as *mem.AddrSpace, n units.Bytes) mem.VA {
	va := as.MMap(n, mem.PermRead|mem.PermWrite, "buf")
	if _, err := as.Populate(va, n, true); err != nil {
		panic(err)
	}
	return va
}

func min(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
