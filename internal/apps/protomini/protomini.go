// Package protomini models the Protobuf workload of §6.2.3 (Fig.
// 13-a): an application receives a length-prefixed serialized message
// from the network and deserializes it field by field. With Copier,
// the recv() copy runs in parallel with deserialization — the app
// csyncs each field just before decoding it, forming the copy-use
// pipeline of §4.1.
package protomini

import (
	"encoding/binary"
	"fmt"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/kernel"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// Config parameterizes one run.
type Config struct {
	// MsgSize is the serialized message size.
	MsgSize units.Bytes
	// FieldSize is the average field payload size.
	FieldSize units.Bytes
	// Messages bounds the run.
	Messages int
	// Copier selects the async path.
	Copier bool
}

// Result reports the per-message receive+deserialize latency.
type Result struct {
	AvgLatency sim.Time
	Messages   int
	Fields     int
}

// Run executes the experiment: a sender streams serialized messages;
// the receiver deserializes each and the latency from recv() start to
// deserialization end is averaged.
func Run(cfg Config) Result {
	if cfg.Messages == 0 {
		cfg.Messages = 10
	}
	if cfg.FieldSize == 0 {
		cfg.FieldSize = 512
	}
	m := kernel.NewMachine(kernel.Config{Cores: 4, MemBytes: 64 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 3)
	sender := m.NewProcess("sender")
	app := m.NewProcess("grpc-app")
	var attach *kernel.CopierAttachment
	if cfg.Copier {
		attach = m.AttachCopier(app)
	}
	ssock, asock := m.Net().SocketPair("tx", "rx")

	// Build the serialized message in the sender: repeated
	// [fieldLen u32][payload] records.
	nFields := int(cfg.MsgSize / (4 + cfg.FieldSize))
	if nFields == 0 {
		nFields = 1
	}
	msgLen := units.Bytes(nFields) * (4 + cfg.FieldSize)
	sbuf := mustBuf(sender.AS, msgLen)
	off := units.Bytes(0)
	for f := 0; f < nFields; f++ {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(cfg.FieldSize))
		if err := sender.AS.WriteAt(sbuf+mem.VA(off), hdr[:]); err != nil {
			panic(err)
		}
		payload := make([]byte, cfg.FieldSize)
		for i := range payload {
			payload[i] = byte(f + i)
		}
		if err := sender.AS.WriteAt(sbuf+mem.VA(off+4), payload); err != nil {
			panic(err)
		}
		off += 4 + cfg.FieldSize
	}

	tx := m.Spawn(sender, "tx", func(t *kernel.Thread) {
		for i := 0; i < cfg.Messages; i++ {
			if err := ssock.Send(t, sbuf, msgLen, false); err != nil {
				return
			}
			// Pace the stream so each message is measured in
			// isolation.
			t.Exec(20_000)
		}
	})

	rbuf := mustBuf(app.AS, msgLen)
	obj := mustBuf(app.AS, cfg.FieldSize) // decoded-field object buffer
	var total sim.Time
	rx := m.Spawn(app, "rx", func(t *kernel.Thread) {
		for i := 0; i < cfg.Messages; i++ {
			start := t.Now()
			if _, err := asock.Recv(t, rbuf, msgLen, cfg.Copier); err != nil {
				panic(err)
			}
			// Deserializing context initialization (§3's Fig. 3
			// commentary).
			t.Exec(600)
			var sync func(off, n units.Bytes)
			if cfg.Copier {
				// Sync in >=2KB strides — "apps can sync once every
				// one to few KB of data used" (§5.1) — instead of per
				// field.
				synced := units.Bytes(0)
				sync = func(off, n units.Bytes) {
					if off+n <= synced {
						return
					}
					upto := (off + n + 2047) / 2048 * 2048
					if upto > msgLen {
						upto = msgLen
					}
					if err := attach.Lib.Csync(t, rbuf+mem.VA(synced), upto-synced); err != nil {
						panic(err)
					}
					synced = upto
				}
			}
			deserialize(t, app.AS, rbuf, obj, msgLen, sync)
			total += t.Now() - start
		}
	})
	if err := m.RunApps(tx, rx); err != nil {
		panic(err)
	}
	return Result{AvgLatency: total / sim.Time(cfg.Messages), Messages: cfg.Messages, Fields: nFields}
}

// deserialize walks the fields, optionally csyncing each range before
// touching it, charging per-byte decode cost and copying payloads into
// the object.
func deserialize(t *kernel.Thread, as *mem.AddrSpace, buf, obj mem.VA, msgLen units.Bytes, csync func(off, n units.Bytes)) {
	off := units.Bytes(0)
	for off+4 <= msgLen {
		if csync != nil {
			csync(off, 4)
		}
		var hdr [4]byte
		if err := as.ReadAt(buf+mem.VA(off), hdr[:]); err != nil {
			panic(err)
		}
		n := units.Bytes(binary.LittleEndian.Uint32(hdr[:]))
		if n == 0 || off+4+n > msgLen {
			panic(fmt.Sprintf("protomini: bad field len %d at %d", n, off))
		}
		if csync != nil {
			csync(off+4, n)
		}
		// Varint/field decoding over the payload plus the copy into
		// the object representation.
		t.Exec(cycles.Mul(n, cycles.DeserializeByteNum, cycles.DeserializeByteDen))
		if err := t.UserCopy(obj, buf+mem.VA(off+4), min(n, 4096)); err != nil {
			panic(err)
		}
		off += 4 + n
	}
}

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
