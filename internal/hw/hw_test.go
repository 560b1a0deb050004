package hw

import (
	"bytes"
	"copier/internal/units"
	"testing"
	"testing/quick"

	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
)

func setup() (*sim.Env, *mem.PhysMem) {
	return sim.NewEnv(), mem.NewPhysMem(4 << 20)
}

func fill(pm *mem.PhysMem, f mem.Frame, off int, data []byte) {
	copy(pm.FrameBytes(f)[off:], data)
}

func TestCopyScatterSingleFrame(t *testing.T) {
	_, pm := setup()
	src, _ := pm.AllocFrame()
	dst, _ := pm.AllocFrame()
	fill(pm, src, 10, []byte("hello"))
	n := CopyScatter(pm,
		[]FrameRange{{dst, 100, 5}},
		[]FrameRange{{src, 10, 5}})
	if n != 5 {
		t.Fatalf("n = %d", n)
	}
	if string(pm.FrameBytes(dst)[100:105]) != "hello" {
		t.Fatal("bytes not moved")
	}
}

func TestCopyScatterCrossFrameAndUnequalRanges(t *testing.T) {
	_, pm := setup()
	sf, _ := pm.AllocFrames(2) // contiguous
	df, _ := pm.AllocFrames(3)
	payload := bytes.Repeat([]byte("abcdefgh"), mem.PageSize/8)
	// Source: one range spanning both frames starting at offset 4000.
	copy(pm.FrameBytes(sf[0])[4000:], payload[:96])
	copy(pm.FrameBytes(sf[1]), payload[96:96+1000])
	// Destination: three single-page ranges with odd offsets.
	dst := []FrameRange{{df[0], 4090, 6}, {df[1], 0, 500}, {df[2], 100, 590}}
	srcRange := []FrameRange{{sf[0], 4000, 1096}}
	n := CopyScatter(pm, dst, srcRange)
	if n != 1096 {
		t.Fatalf("n = %d, want 1096", n)
	}
	var got []byte
	got = append(got, pm.FrameBytes(df[0])[4090:4096]...)
	got = append(got, pm.FrameBytes(df[1])[0:500]...)
	got = append(got, pm.FrameBytes(df[2])[100:690]...)
	if !bytes.Equal(got, payload[:1096]) {
		t.Fatal("scatter copy corrupted data")
	}
}

// Property: CopyScatter over random chunkings equals one flat copy.
func TestCopyScatterChunkingProperty(t *testing.T) {
	f := func(seedData []byte, splits []uint8) bool {
		if len(seedData) == 0 {
			return true
		}
		if len(seedData) > 2000 {
			seedData = seedData[:2000]
		}
		_, pm := setup()
		sf, _ := pm.AllocFrame()
		fill(pm, sf, 0, seedData)
		// Build a destination chunking from the split list.
		var dst []FrameRange
		remaining := len(seedData)
		var frames []mem.Frame
		for _, s := range splits {
			if remaining == 0 {
				break
			}
			n := int(s)%remaining + 1
			f, _ := pm.AllocFrame()
			frames = append(frames, f)
			dst = append(dst, FrameRange{f, units.Bytes(int(s) % 100), units.Bytes(n)})
			remaining -= n
		}
		if remaining > 0 {
			f, _ := pm.AllocFrame()
			frames = append(frames, f)
			dst = append(dst, FrameRange{f, 0, units.Bytes(remaining)})
		}
		CopyScatter(pm, dst, []FrameRange{{sf, 0, units.Bytes(len(seedData))}})
		var got []byte
		for _, r := range dst {
			got = append(got, pm.FrameBytes(r.Frame)[r.Off:r.Off+r.Len]...)
		}
		return bytes.Equal(got, seedData)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A descriptor completes in background time, one transfer cost after
// it is enqueued on an idle channel: no byte moves before Complete.
func TestDMABackgroundCompletion(t *testing.T) {
	env, pm := setup()
	d := NewDMAChannel(env, pm, 0, nil)
	sf, _ := pm.AllocFrame()
	df, _ := pm.AllocFrame()
	fill(pm, sf, 0, []byte("dma-payload"))
	n := units.Bytes(11)
	r := d.Enqueue(FrameRange{df, 0, n}, FrameRange{sf, 0, n})
	if want := cycles.CopyCost(cycles.UnitDMA, n); r.CompleteAt != want {
		t.Fatalf("completes at %d, want one transfer cost %d", r.CompleteAt, want)
	}
	if string(pm.FrameBytes(df)[:n]) == "dma-payload" {
		t.Fatal("DMA completed synchronously")
	}
	if err := d.Complete(&r); err != nil {
		t.Fatal(err)
	}
	if string(pm.FrameBytes(df)[:n]) != "dma-payload" {
		t.Fatal("DMA did not move data")
	}
	if d.BytesCopied != int64(n) || d.Submitted != 1 {
		t.Fatalf("BytesCopied = %d, Submitted = %d", d.BytesCopied, d.Submitted)
	}
}

// The channel drains its queue FIFO: a descriptor enqueued while
// another is in flight starts only when that one ends.
func TestDMAQueueSerializes(t *testing.T) {
	env, pm := setup()
	d := NewDMAChannel(env, pm, 0, nil)
	fs, _ := pm.AllocFrames(4)
	n := units.Bytes(8192)
	cost := cycles.CopyCost(cycles.UnitDMA, n)
	r0 := d.Enqueue(FrameRange{fs[0], 0, n}, FrameRange{fs[1], 0, n})
	r1 := d.Enqueue(FrameRange{fs[2], 0, n}, FrameRange{fs[3], 0, n})
	if r0.CompleteAt != cost || r1.CompleteAt != 2*cost {
		t.Fatalf("complete at [%d %d], want [%d %d]", r0.CompleteAt, r1.CompleteAt, cost, 2*cost)
	}
	if d.Submitted != 2 || d.BusyUntil() != 2*cost {
		t.Fatalf("Submitted = %d, BusyUntil = %d", d.Submitted, d.BusyUntil())
	}
}

func TestDMAMismatchedLengthsPanic(t *testing.T) {
	env, pm := setup()
	d := NewDMAChannel(env, pm, 0, nil)
	fs, _ := pm.AllocFrames(2)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	d.Enqueue(FrameRange{fs[0], 0, 10}, FrameRange{fs[1], 0, 20})
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(4096, 2) // 32 sets, 2 ways
	c.Touch(0, 64)         // miss
	c.Touch(0, 64)         // hit
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("h=%d m=%d", c.Hits, c.Misses)
	}
	// Fill the set with conflicting lines: set index repeats every
	// sets*lineSize = 32*64 = 2048 bytes.
	c.Touch(2048, 64) // same set, second way: miss
	c.Touch(4096, 64) // same set: evicts LRU (line 0)
	c.Touch(0, 64)    // miss again (was evicted)
	if c.Misses != 4 {
		t.Fatalf("misses = %d, want 4", c.Misses)
	}
}

func TestCacheStreamPollutes(t *testing.T) {
	c := NewCache(32<<10, 8)
	// Warm a working set.
	for i := 0; i < 4; i++ {
		c.Touch(0, 8<<10)
	}
	c.ResetStats()
	c.Touch(0, 8<<10)
	warmMisses := c.Misses
	// Stream a large copy through, then re-touch.
	c.Stream(256 << 10)
	c.ResetStats()
	c.Touch(0, 8<<10)
	coldMisses := c.Misses
	if coldMisses <= warmMisses {
		t.Fatalf("stream did not pollute: warm=%d cold=%d", warmMisses, coldMisses)
	}
}

func TestCacheMissRate(t *testing.T) {
	c := NewCache(4096, 2)
	if c.MissRate() != 0 {
		t.Fatal("empty cache miss rate != 0")
	}
	c.Touch(0, 64)
	c.Touch(0, 64)
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %f", got)
	}
}

func TestTotalLen(t *testing.T) {
	if TotalLen([]FrameRange{{0, 0, 3}, {1, 5, 7}}) != 10 {
		t.Fatal("TotalLen wrong")
	}
}
