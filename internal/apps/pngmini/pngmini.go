// Package pngmini models the libpng workload of Fig. 2-a / Fig. 3:
// decoding an image read from the file system. The image is read()
// from the page cache into a user buffer and then decoded row by row
// (filter reconstruction). With Copier, the read's copy is a k-mode
// Copy Task and the decoder csyncs each row strip just before
// filtering it — the "copy in read()" pipeline of Fig. 3.
package pngmini

import (
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/kernel"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/units"
)

// Config parameterizes one run.
type Config struct {
	// ImageSize is the encoded image size.
	ImageSize units.Bytes
	// Images to decode.
	Images int
	Copier bool
}

// Result reports per-image latency and the copy share.
type Result struct {
	AvgLatency sim.Time
	CopyCycles int64
	Busy       int64
}

// DecodeByteNum/Den is libpng's per-byte filter-reconstruction cost
// (defiltering + interlace handling, ~1 GB/s).
const decodeNum, decodeDen = 3, 1

// Run executes the experiment.
func Run(cfg Config) Result {
	if cfg.Images == 0 {
		cfg.Images = 8
	}
	m := kernel.NewMachine(kernel.Config{Cores: 3, MemBytes: 64 << 20})
	m.InstallCopier(core.DefaultConfig(), 1, 2)
	app := m.NewProcess("libpng")
	var attach *kernel.CopierAttachment
	if cfg.Copier {
		attach = m.AttachCopier(app)
	}
	fs := m.NewFS()
	data := make([]byte, cfg.ImageSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	file := fs.Create("image.png", data)

	buf := mustBuf(app.AS, cfg.ImageSize)
	out := mustBuf(app.AS, 4096) // decoded row buffer
	var total sim.Time
	th := m.Spawn(app, "decode", func(t *kernel.Thread) {
		const strip = 2048 // a few rows per sync (§5.1 granularity)
		for img := 0; img < cfg.Images; img++ {
			start := t.Now()
			if _, err := fs.Read(t, file, 0, buf, cfg.ImageSize, cfg.Copier); err != nil {
				panic(err)
			}
			// Header parse + decoder setup before the first row.
			t.Exec(800)
			for off := units.Bytes(0); off < cfg.ImageSize; off += strip {
				n := units.Bytes(strip)
				if off+n > cfg.ImageSize {
					n = cfg.ImageSize - off
				}
				if cfg.Copier {
					if err := attach.Lib.Csync(t, buf+mem.VA(off), n); err != nil {
						panic(err)
					}
				}
				// Defilter the strip into the row buffer.
				t.Exec(cycles.Mul(n, decodeNum, decodeDen))
				if err := t.UserCopy(out, buf+mem.VA(off), min(n, 4096)); err != nil {
					panic(err)
				}
			}
			total += t.Now() - start
		}
	})
	if err := m.RunApps(th); err != nil {
		panic(err)
	}
	return Result{
		AvgLatency: total / sim.Time(cfg.Images),
		CopyCycles: m.CopyCycles,
		Busy:       th.BusyCycles,
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
