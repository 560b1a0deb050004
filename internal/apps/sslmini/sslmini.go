// Package sslmini models the OpenSSL workload of §6.2.3 (Fig. 13-b):
// SSL_read() receives an encrypted record from the network and
// decrypts it (AES-GCM). With Copier the recv() copy overlaps the
// decryption, which proceeds chunk by chunk behind per-chunk csyncs.
// TLS records are at most 16KB, so larger messages arrive as multiple
// records and the relative speedup flattens beyond 16KB.
package sslmini

import (
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/kernel"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// RecordMax is the TLS maximum record size.
const RecordMax = 16 << 10

// Config parameterizes one run.
type Config struct {
	// MsgSize is the application message size (split into records).
	MsgSize  units.Bytes
	Messages int
	Copier   bool
}

// Result reports the average SSL_read latency per message.
type Result struct {
	AvgLatency sim.Time
	Messages   int
	Records    int
}

// Run executes the experiment.
func Run(cfg Config) Result {
	if cfg.Messages == 0 {
		cfg.Messages = 10
	}
	m := kernel.NewMachine(kernel.Config{Cores: 4, MemBytes: 64 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 3)
	sender := m.NewProcess("peer")
	app := m.NewProcess("ssl-app")
	var attach *kernel.CopierAttachment
	if cfg.Copier {
		attach = m.AttachCopier(app)
	}
	ssock, asock := m.Net().SocketPair("tx", "rx")

	records := int((cfg.MsgSize + RecordMax - 1) / RecordMax)
	sbuf := mustBuf(sender.AS, RecordMax)
	fill(sender.AS, sbuf, RecordMax)

	tx := m.Spawn(sender, "tx", func(t *kernel.Thread) {
		for i := 0; i < cfg.Messages*records; i++ {
			n := units.Bytes(RecordMax)
			if rem := cfg.MsgSize - units.Bytes((i%records))*RecordMax; rem < n {
				n = rem
			}
			if err := ssock.Send(t, sbuf, n, false); err != nil {
				return
			}
			t.Exec(10_000)
		}
	})

	rbuf := mustBuf(app.AS, RecordMax)
	pbuf := mustBuf(app.AS, RecordMax) // plaintext output
	var total sim.Time
	rx := m.Spawn(app, "rx", func(t *kernel.Thread) {
		var csync func(off, ln units.Bytes)
		if cfg.Copier {
			csync = func(off, ln units.Bytes) {
				if err := attach.Lib.Csync(t, rbuf+mem.VA(off), ln); err != nil {
					panic(err)
				}
			}
		}
		for i := 0; i < cfg.Messages; i++ {
			start := t.Now()
			for r := 0; r < records; r++ {
				n := units.Bytes(RecordMax)
				if rem := cfg.MsgSize - units.Bytes(r)*RecordMax; rem < n {
					n = rem
				}
				if _, err := asock.Recv(t, rbuf, n, cfg.Copier); err != nil {
					panic(err)
				}
				// Record header/IV processing before payload use.
				t.Exec(400)
				decrypt(t, app.AS, rbuf, pbuf, n, csync)
			}
			total += t.Now() - start
		}
	})
	if err := m.RunApps(tx, rx); err != nil {
		panic(err)
	}
	return Result{AvgLatency: total / sim.Time(cfg.Messages), Messages: cfg.Messages, Records: records}
}

// decrypt processes the record in 1KB chunks at the AES-GCM per-byte
// rate, csyncing each chunk first on the Copier path. Decrypted data
// is one-time use (§5.1: "in OpenSSL the data is never reused after
// being decrypted"), so chunk-level csync is the natural pattern.
func decrypt(t *kernel.Thread, as *mem.AddrSpace, in, out mem.VA, n units.Bytes, csync func(off, ln units.Bytes)) {
	const chunk = 1024
	for off := units.Bytes(0); off < n; off += chunk {
		ln := units.Bytes(chunk)
		if off+ln > n {
			ln = n - off
		}
		if csync != nil {
			csync(off, ln)
		}
		t.Exec(cycles.Mul(ln, cycles.DecryptByteNum, cycles.DecryptByteDen))
		// The decrypted chunk lands in the plaintext buffer.
		buf := make([]byte, ln)
		if err := as.ReadAt(in+mem.VA(off), buf); err != nil {
			panic(err)
		}
		for i := range buf {
			buf[i] ^= 0x5A // toy stream "cipher" keeps data observable
		}
		if err := as.WriteAt(out+mem.VA(off), buf); err != nil {
			panic(err)
		}
	}
}

func mustBuf(as *mem.AddrSpace, n units.Bytes) mem.VA {
	va := as.MMap(n, mem.PermRead|mem.PermWrite, "buf")
	if _, err := as.Populate(va, n, true); err != nil {
		panic(err)
	}
	return va
}

func fill(as *mem.AddrSpace, va mem.VA, n units.Bytes) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i*37) ^ 0x5A
	}
	if err := as.WriteAt(va, buf); err != nil {
		panic(err)
	}
}
