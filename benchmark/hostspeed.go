package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// This host shares its CPUs and memory with other tenants, and its
// speed drifts by tens of percent over seconds and minutes — enough to
// swamp most changes to the program. So every untraced round is
// bracketed by passes of a fixed reference kernel, and the round's host
// timings are reported at nominal host speed: divided by the round's
// slowness, the median of the passes on either side of it over
// refNominal (rates are multiplied by it). The passes run between
// rounds, after a blocking collection has reclaimed the last round's
// world and before the next is built, so no garbage the program made
// is being marked or swept while they run. The kernel mixes what the
// simulator and acopy spend host time on — pointer chasing, map
// iteration, goroutine handoff over channels, integer work and memmove
// — uses only the standard library, and allocates nothing once built.

// refNominal is the kernel's pass time on an unloaded host of the kind
// the baseline was measured on.
const refNominal = 10 * time.Millisecond

// refPasses is how many passes each boundary between rounds times,
// after one untimed pass: the first pass after a round runs up to twice
// as slow while the kernel's 4 MB pointer-chase array is brought back
// into cache.
const refPasses = 4

type refKernel struct {
	next     []uint32
	table    map[uint32]uint32
	src, dst []byte
	ping     chan uint32
	pong     chan uint32
	sink     uint64
}

var (
	refOnce sync.Once
	ref     *refKernel
)

// boundary collects the heap, times refPasses kernel passes, each as a
// multiple of refNominal (1.2 means the host ran 20% slower than
// nominal), and returns the freed memory to the OS.
func boundary() []float64 {
	refOnce.Do(func() { ref = newRefKernel() })
	runtime.GC()
	ref.pass()
	slow := make([]float64, refPasses)
	for i := range slow {
		slow[i] = float64(ref.pass()) / float64(refNominal)
	}
	debug.FreeOSMemory()
	return slow
}

func newRefKernel() *refKernel {
	r := newRNG(1, "reference", 0)
	k := &refKernel{
		next:  make([]uint32, 1<<20),
		table: make(map[uint32]uint32, 1<<15),
		src:   make([]byte, 4<<20),
		dst:   make([]byte, 4<<20),
		ping:  make(chan uint32),
		pong:  make(chan uint32),
	}
	// next is one random cycle through a 4 MB array.
	perm := make([]uint32, len(k.next))
	for i := range perm {
		perm[i] = uint32(i)
	}
	shuffle(r, perm)
	for i := range perm {
		k.next[perm[i]] = perm[(i+1)%len(perm)]
	}
	for i := 0; i < 1<<15; i++ {
		k.table[uint32(r.next())] = uint32(i)
	}
	r.fill(k.src)
	// The echo goroutine lives as long as the process; it only ever
	// waits on ping between passes.
	go func() {
		for v := range k.ping {
			k.pong <- v + 1
		}
	}()
	return k
}

func (k *refKernel) pass() time.Duration {
	t0 := time.Now()
	var s uint64
	p := uint32(0)
	for i := 0; i < 100_000; i++ {
		p = k.next[p]
		s += uint64(p)
	}
	for i := 0; i < 2; i++ {
		for key, v := range k.table {
			s += uint64(key ^ v)
		}
	}
	for i := uint32(0); i < 2000; i++ {
		k.ping <- i
		s += uint64(<-k.pong)
	}
	for i := 0; i < 2; i++ {
		copy(k.dst, k.src)
	}
	s += uint64(k.dst[s%uint64(len(k.dst))])
	for i := 0; i < 1_000_000; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
	}
	k.sink = s
	return time.Since(t0)
}
