// Package redis models the Redis workload of §6.2.1: a single-threaded
// key-value server over the simulated network, exercised by parallel
// closed-loop clients issuing SET/GET commands, under several copy
// backends (baseline sync, Copier, zIO, Userspace Bypass, zero-copy
// send).
//
// The server performs the five copies the paper instruments:
// (1) request kernel→I/O buffer in recv(); (2) SET: value I/O→database;
// (3) GET: value database→I/O; (4) reply I/O→kernel in send();
// (5) the internal reply-assembly copy. With Copier, all are
// asynchronous and page faults move off the critical path.
package redis

import (
	"bytes"
	"encoding/binary"
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

// Mode selects the copy backend, matching Fig. 11's series.
type Mode int

const (
	ModeSync Mode = iota
	ModeCopier
	ModeZIO
	ModeUB
	ModeZeroCopy // zero-copy send() for GET replies
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "baseline"
	case ModeCopier:
		return "copier"
	case ModeZIO:
		return "zIO"
	case ModeUB:
		return "UB"
	case ModeZeroCopy:
		return "zero-copy"
	}
	return "mode?"
}

// Config parameterizes one run.
type Config struct {
	Mode      Mode
	ValueSize units.Bytes
	// Op is "set" or "get" (the paper reports them separately).
	Op string
	// Clients is the number of parallel closed-loop clients
	// (redis-benchmark uses 8).
	Clients int
	// OpsPerClient bounds the run length.
	OpsPerClient int
	// Cores sizes the machine; 0 = clients+2 (uncontended) plus the
	// Copier core.
	Cores int
	// Instances runs several independent server instances (with their
	// own clients) on the same machine — the §6.3.4 whole-system
	// utilization study. 0 = 1.
	Instances int
	// Keys in the database.
	Keys int
	// CopierConfig overrides the service config (ablations).
	CopierConfig *core.Config
}

// Result carries the metrics Fig. 11 reports.
type Result struct {
	Latencies []sim.Time
	Elapsed   sim.Time
	Ops       int
	// CopierStats is a snapshot when Mode == ModeCopier.
	CopierStats core.Stats
	// ServerBusy is the server thread's consumed cycles (for the CPI
	// and utilization studies).
	ServerBusy int64
	// CopyCycles is cycles spent in synchronous copies machine-wide
	// (the Fig. 2-a numerator).
	CopyCycles int64
	// TotalBusy is all cores' consumed cycles (the Fig. 2-a
	// denominator).
	TotalBusy int64
}

// Avg returns the mean latency in cycles.
func (r Result) Avg() sim.Time {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum sim.Time
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / sim.Time(len(r.Latencies))
}

// P99 returns the 99th-percentile latency.
func (r Result) P99() sim.Time {
	if len(r.Latencies) == 0 {
		return 0
	}
	ls := append([]sim.Time(nil), r.Latencies...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls[len(ls)*99/100]
}

// ThroughputOpsPerMs returns completed operations per virtual
// millisecond.
func (r Result) ThroughputOpsPerMs() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Ops) / (cycles.ToNanoseconds(r.Elapsed) / 1e6)
}

// request layout: op(1) keyIdx(4) valLen(4) [value]
const reqHdr = 9

// reply layout: status(1) valLen(4) [value]
const repHdr = 5

// Run executes one Redis experiment.
func Run(cfg Config) Result {
	if cfg.Clients == 0 {
		cfg.Clients = 8
	}
	if cfg.OpsPerClient == 0 {
		cfg.OpsPerClient = 30
	}
	if cfg.Keys == 0 {
		cfg.Keys = 16
	}
	instances := cfg.Instances
	if instances == 0 {
		instances = 1
	}
	cores := cfg.Cores
	if cores == 0 {
		cores = cfg.Clients*instances + instances + 2
	}
	m := kernel.NewMachine(kernel.Config{Cores: cores, MemBytes: 64 << 20})
	ccfg := core.DefaultConfig()
	if cfg.CopierConfig != nil {
		ccfg = *cfg.CopierConfig
	}
	m.InstallCopier(ccfg, 1, cores-1)

	var latencies []sim.Time
	var lastDone sim.Time
	var all []*kernel.Thread
	var serverBusy *kernel.Thread
	start := m.Now()
	for inst := 0; inst < instances; inst++ {
		srv, clients := buildInstance(m, cfg, inst, &latencies, &lastDone)
		if inst == 0 {
			serverBusy = srv
		}
		all = append(append(all, srv), clients...)
	}
	if err := m.RunApps(all...); err != nil {
		panic(err)
	}
	var totalBusy int64
	for _, c := range m.Cores() {
		totalBusy += c.BusyCycles
	}
	res := Result{
		Latencies:  latencies,
		Elapsed:    lastDone - start,
		Ops:        instances * cfg.Clients * cfg.OpsPerClient,
		ServerBusy: serverBusy.BusyCycles,
		CopyCycles: m.CopyCycles,
		TotalBusy:  totalBusy,
	}
	if m.Copier() != nil {
		res.CopierStats = m.Copier().Stats
	}
	return res
}

// buildInstance sets up one server with its clients on the machine.
func buildInstance(m *kernel.Machine, cfg Config, inst int, latencies *[]sim.Time, lastDone *sim.Time) (*kernel.Thread, []*kernel.Thread) {
	server := m.NewProcess(fmt.Sprintf("redis-server%d", inst))
	var srvAttach *kernel.CopierAttachment
	if cfg.Mode == ModeCopier {
		srvAttach = m.AttachCopier(server)
	}
	var zio *baseline.ZIO
	if cfg.Mode == ModeZIO {
		zio = baseline.NewZIO(m, 4<<10)
	}
	var ub *baseline.UB
	if cfg.Mode == ModeUB {
		ub = baseline.NewUB()
	}

	// Database: per-key value buffers, preloaded so GET runs return
	// verifiable data.
	db := make([]mem.VA, cfg.Keys)
	for k := range db {
		db[k] = mustBuf(server.AS, cfg.ValueSize)
		fillVA(server.AS, db[k], cfg.ValueSize, keyFill(k))
	}
	ibuf := mustBuf(server.AS, reqHdr+cfg.ValueSize+64) // input I/O buffer
	obuf := mustBuf(server.AS, repHdr+cfg.ValueSize+64) // output I/O buffer

	notify := sim.NewSignal("redis-epoll")
	var socks []*kernel.Socket
	var clientSocks []*kernel.Socket
	for i := 0; i < cfg.Clients; i++ {
		ss, cs := m.Net().SocketPair(fmt.Sprintf("srv%d.%d", inst, i), fmt.Sprintf("cli%d.%d", inst, i))
		ss.SetReadyNotify(notify)
		socks = append(socks, ss)
		clientSocks = append(clientSocks, cs)
	}

	totalOps := cfg.Clients * cfg.OpsPerClient
	srv := m.Spawn(server, fmt.Sprintf("redis%d", inst), func(t *kernel.Thread) {
		served := 0
		for served < totalOps {
			s := kernel.WaitAnyReadable(t, notify, socks)
			if s == nil {
				return
			}
			serveOne(t, cfg, s, srvAttach, zio, ub, db, ibuf, obuf)
			served++
		}
	})

	// Clients: closed loop, measuring per-op latency.
	var clientThreads []*kernel.Thread
	for i := 0; i < cfg.Clients; i++ {
		i := i
		p := m.NewProcess(fmt.Sprintf("client%d.%d", inst, i))
		sock := clientSocks[i]
		reqBuf := mustBuf(p.AS, reqHdr+cfg.ValueSize)
		valSrc := mustBuf(p.AS, cfg.ValueSize)
		fillVA(p.AS, valSrc, cfg.ValueSize, byte(0x40+i))
		repBuf := mustBuf(p.AS, repHdr+cfg.ValueSize)
		th := m.Spawn(p, fmt.Sprintf("cli%d.%d", inst, i), func(t *kernel.Thread) {
			for op := 0; op < cfg.OpsPerClient; op++ {
				opStart := t.Now()
				key := (i*cfg.OpsPerClient + op) % len(db)
				if cfg.Op == "set" {
					// Build request: header + value copy (client-side
					// prep, present in redis-benchmark too).
					writeHdr(t, p.AS, reqBuf, 1, key, cfg.ValueSize)
					if err := t.UserCopy(reqBuf+reqHdr, valSrc, cfg.ValueSize); err != nil {
						panic(err)
					}
					send(t, sock, reqBuf, reqHdr+cfg.ValueSize)
					recvFull(t, sock, repBuf, repHdr)
				} else {
					writeHdr(t, p.AS, reqBuf, 2, key, 0)
					send(t, sock, reqBuf, reqHdr)
					recvFull(t, sock, repBuf, repHdr+cfg.ValueSize)
					// Consume the value (checksum-style touch) and
					// verify the payload survived the copy chain.
					t.Exec(cycles.Mul(cfg.ValueSize, cycles.HashByteNum, cycles.HashByteDen))
					var b [1]byte
					if err := p.AS.ReadAt(repBuf+repHdr, b[:]); err != nil {
						panic(err)
					}
					if b[0] != keyFill(key) {
						panic(fmt.Sprintf("redis: GET key %d returned %#x, want %#x", key, b[0], keyFill(key)))
					}
				}
				*latencies = append(*latencies, t.Now()-opStart)
			}
			if t.Now() > *lastDone {
				*lastDone = t.Now()
			}
		})
		clientThreads = append(clientThreads, th)
	}
	return srv, clientThreads
}

// serveOne handles one request on socket s.
func serveOne(t *kernel.Thread, cfg Config, s *kernel.Socket, a *kernel.CopierAttachment, zio *baseline.ZIO, ub *baseline.UB, db []mem.VA, ibuf, obuf mem.VA) {
	as := t.Proc.AS
	var got units.Bytes
	switch cfg.Mode {
	case ModeUB:
		got, _ = ub.RecvNT(t, s, ibuf, reqHdr+cfg.ValueSize)
	case ModeZIO:
		// zIO's recv interposition materializes deferred copies
		// sourced in the buffer about to be overwritten (the Redis
		// input-buffer-reuse problem, §6.2.1).
		if err := zio.InvalidateSource(t, ibuf, reqHdr+cfg.ValueSize); err != nil {
			panic(err)
		}
		fallthrough
	default:
		got, _ = s.Recv(t, ibuf, reqHdr+cfg.ValueSize, cfg.Mode == ModeCopier)
	}
	if cfg.Mode == ModeCopier {
		// Parse needs only the header: csync it, leaving the value
		// copy in flight (the Copy-Use window).
		if err := a.Lib.Csync(t, ibuf, reqHdr); err != nil {
			panic(err)
		}
	}
	if got < reqHdr {
		return
	}
	op, key, valLen := readHdr(t, as, ibuf)
	// Protocol parsing over the header bytes.
	parse := cycles.Mul(reqHdr, cycles.ParseByteNum, cycles.ParseByteDen)
	if cfg.Mode == ModeUB {
		parse = ub.Slow(parse)
	}
	t.Exec(parse)

	switch op {
	case 1: // SET
		// Key hashing / dict update.
		t.Exec(cycles.Mul(8, cycles.HashByteNum, cycles.HashByteDen) + cycles.DictUpdate)
		// Copy value I/O buffer → database (copy 2 of §6.2.1).
		switch cfg.Mode {
		case ModeCopier:
			if valLen < 512 {
				// Below the userspace break-even (§4.6): sync copy.
				if err := t.UserCopy(db[key], ibuf+reqHdr, valLen); err != nil {
					panic(err)
				}
				break
			}
			if err := a.Lib.Amemcpy(t, db[key], ibuf+reqHdr, valLen); err != nil {
				panic(err)
			}
			// No csync: the database value is next read by a GET,
			// whose own copy task depends on this one in-service.
		case ModeZIO:
			if err := zio.Memcpy(t, db[key], ibuf+reqHdr, valLen); err != nil {
				panic(err)
			}
		case ModeUB:
			if err := t.UserCopy(db[key], ibuf+reqHdr, valLen); err != nil {
				panic(err)
			}
		default:
			if err := t.UserCopy(db[key], ibuf+reqHdr, valLen); err != nil {
				panic(err)
			}
		}
		// Reply "OK".
		writeRep(t, as, obuf, 0, 0)
		reply(t, cfg, s, a, ub, zio, obuf, repHdr)
	case 2: // GET
		t.Exec(cycles.Mul(8, cycles.HashByteNum, cycles.HashByteDen) + cycles.DictUpdate)
		writeRep(t, as, obuf, 0, cfg.ValueSize)
		// Copy value database → I/O buffer (copy 3), then send
		// (copy 4); with Copier the send's kernel task absorbs or
		// orders after the pending user task automatically.
		switch cfg.Mode {
		case ModeCopier:
			if err := a.Lib.Amemcpy(t, obuf+repHdr, db[key], cfg.ValueSize); err != nil {
				panic(err)
			}
		case ModeZIO:
			if err := zio.Memcpy(t, obuf+repHdr, db[key], cfg.ValueSize); err != nil {
				panic(err)
			}
		default:
			if err := t.UserCopy(obuf+repHdr, db[key], cfg.ValueSize); err != nil {
				panic(err)
			}
		}
		reply(t, cfg, s, a, ub, zio, obuf, repHdr+cfg.ValueSize)
	}
}

func reply(t *kernel.Thread, cfg Config, s *kernel.Socket, a *kernel.CopierAttachment, ub *baseline.UB, zio *baseline.ZIO, buf mem.VA, n units.Bytes) {
	switch cfg.Mode {
	case ModeZIO:
		// zIO's interposed send gathers aliased ranges straight from
		// their sources — the deferred user copy never runs.
		if err := zio.Send(t, s, buf, n); err != nil {
			panic(err)
		}
	case ModeUB:
		if err := ub.SendNT(t, s, buf, n); err != nil {
			panic(err)
		}
	case ModeZeroCopy:
		if z, err := s.SendZeroCopy(t, buf, n); err == nil {
			// Redis reuses obuf immediately: it must wait for
			// ownership to return (§2.2's management burden).
			z.Wait(t)
			return
		}
		// Unaligned or too small: fall back.
		fallthrough
	default:
		if err := s.Send(t, buf, n, cfg.Mode == ModeCopier); err != nil {
			panic(err)
		}
	}
}

func send(t *kernel.Thread, s *kernel.Socket, buf mem.VA, n units.Bytes) {
	if err := s.Send(t, buf, n, false); err != nil {
		panic(err)
	}
}

func recvFull(t *kernel.Thread, s *kernel.Socket, buf mem.VA, n units.Bytes) {
	if _, err := s.Recv(t, buf, n, false); err != nil {
		panic(err)
	}
}

func writeHdr(t *kernel.Thread, as *mem.AddrSpace, buf mem.VA, op byte, key int, valLen units.Bytes) {
	var h [reqHdr]byte
	h[0] = op
	binary.LittleEndian.PutUint32(h[1:], uint32(key))
	binary.LittleEndian.PutUint32(h[5:], uint32(valLen))
	if err := as.WriteAt(buf, h[:]); err != nil {
		panic(err)
	}
	t.Exec(50)
}

func readHdr(t *kernel.Thread, as *mem.AddrSpace, buf mem.VA) (op byte, key int, valLen units.Bytes) {
	var h [reqHdr]byte
	if err := as.ReadAt(buf, h[:]); err != nil {
		panic(err)
	}
	t.Exec(30)
	return h[0], int(binary.LittleEndian.Uint32(h[1:])), units.Bytes(binary.LittleEndian.Uint32(h[5:]))
}

func writeRep(t *kernel.Thread, as *mem.AddrSpace, buf mem.VA, status byte, valLen units.Bytes) {
	var h [repHdr]byte
	h[0] = status
	binary.LittleEndian.PutUint32(h[1:], uint32(valLen))
	if err := as.WriteAt(buf, h[:]); err != nil {
		panic(err)
	}
	t.Exec(40)
}

// keyFill is the deterministic preload byte of a key's value.
func keyFill(k int) byte { return byte(0x20 + k%200) }

func mustBuf(as *mem.AddrSpace, n units.Bytes) mem.VA {
	va := as.MMap(n, mem.PermRead|mem.PermWrite, "buf")
	if _, err := as.Populate(va, n, true); err != nil {
		panic(err)
	}
	return va
}

func fillVA(as *mem.AddrSpace, va mem.VA, n units.Bytes, b byte) {
	// bytes.Repeat fills by doubling copies: a byte-at-a-time loop ran
	// at half speed whenever the linker left it across a 64-byte line.
	if err := as.WriteAt(va, bytes.Repeat([]byte{b}, int(n))); err != nil {
		panic(err)
	}
}
