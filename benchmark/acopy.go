package main

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"time"

	"copier/internal/acopy"
)

// acopyMix is acopy-mix on the real host: one submitter and
// acopy.New(1), copying sizes drawn from the nine classes. Each copy
// is AMemcpy → Wait → Release, paired with a plain copy() of the same
// size; which of the two goes first alternates, so neither always
// finds the source in cache.
type acopyMix struct {
	copies, warmup int
	sizes          []int
	// setups is how many times a run builds the copier and its
	// buffers; all but the last are torn down again.
	setups int

	cp            *acopy.Copier
	src, dst, ref []byte
}

// slack is how far past its start a copy's source may begin: each copy
// reads at a seeded offset, so no copy finds its destination already
// holding the expected bytes.
const slack = 64 << 10

// open builds the copier and buffers several times, timing each, and
// warms up the last with untimed copies.
func (a *acopyMix) open(seed uint64) ([]float64, error) {
	maxSize := 0
	for _, n := range a.sizes {
		maxSize = max(maxSize, n)
	}
	var setups []float64
	for i := 0; i < a.setups; i++ {
		a.close()
		debug.FreeOSMemory()
		t0 := time.Now()
		a.cp = acopy.New(1)
		a.src = make([]byte, maxSize+slack)
		a.dst = make([]byte, maxSize)
		a.ref = make([]byte, maxSize)
		newRNG(seed, "acopy-src", 0).fill(a.src)
		// Touch the destinations so page faults stay out of the
		// timed copies.
		clear(a.dst)
		clear(a.ref)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r := newRNG(seed, "acopy-warmup", 0)
	for i := 0; i < a.warmup; i++ {
		n := a.sizes[i%len(a.sizes)]
		off := r.intn(slack)
		h := a.cp.AMemcpy(a.dst[:n], a.src[off:off+n])
		h.Wait()
		if err := h.Err(); err != nil {
			return nil, err
		}
		h.Release()
	}
	return setups, nil
}

func (a *acopyMix) close() {
	if a.cp != nil {
		a.cp.Close()
		a.cp = nil
	}
}

func (a *acopyMix) round(seed uint64, round int, tr *tracer) (*roundOut, error) {
	out := &roundOut{attempted: a.copies}
	if round == 0 && tr == nil {
		setups, err := a.open(seed)
		if err != nil {
			return nil, err
		}
		out.setups = setups
	}
	r := newRNG(seed, "acopy", round)
	sizes, offs := evenly(r, a.copies, a.sizes), make([]int, a.copies)
	for i := range offs {
		offs[i] = r.intn(slack)
	}
	if err := tr.begin(); err != nil {
		return nil, err
	}
	lat := make([]float64, 0, a.copies)
	var busy time.Duration
	var copied float64
	for i, n := range sizes {
		src, dst := a.src[offs[i]:offs[i]+n], a.dst[:n]
		if i%2 == 1 {
			out.host.obs("memmove_us."+sizeName(n), a.plain(src))
		}
		var d time.Duration
		var err error
		if tr == nil {
			t0 := time.Now()
			h := a.cp.AMemcpy(dst, src)
			h.Wait()
			err = h.Err()
			h.Release()
			d = time.Since(t0)
		} else {
			t0 := time.Now()
			h := a.cp.AMemcpy(dst, src)
			t1 := time.Now()
			h.Wait()
			t2 := time.Now()
			err = h.Err()
			h.Release()
			t3 := time.Now()
			d = t3.Sub(t0)
			out.host.obs("acopy.submit_ns", float64(t1.Sub(t0).Nanoseconds()))
			out.host.obs("acopy.wait_ns", float64(t2.Sub(t1).Nanoseconds()))
			out.host.obs("acopy.release_ns", float64(t3.Sub(t2).Nanoseconds()))
			out.host.obs("acopy.own_ns."+sizeName(n), float64((t1.Sub(t0) + t3.Sub(t2)).Nanoseconds()))
			out.host.obs("acopy.rtt_us."+sizeName(n), float64(d.Nanoseconds())/1e3)
		}
		// The check runs between copies, outside the timed
		// intervals but inside a traced round's profile, where it
		// counts as bench time.
		if err == nil && !bytes.Equal(dst, src) {
			err = fmt.Errorf("destination differs from source")
		}
		if err != nil {
			tr.end()
			return nil, fmt.Errorf("copy %d (%d B): %w", i, n, err)
		}
		if i%2 == 0 {
			out.host.obs("memmove_us."+sizeName(n), a.plain(src))
		}
		busy += d
		copied += float64(n)
		lat = append(lat, float64(d.Nanoseconds())/1e3)
	}
	tr.end()
	out.opsPerSec = float64(a.copies) / busy.Seconds()
	for _, q := range []struct {
		key      string
		perMille int
	}{{"p50_us", 500}, {"p99_us", 990}} {
		if v := quantile(lat, q.perMille); !v.null {
			out.host.obs(q.key, v.v)
		}
	}
	out.host.obs("goodput_gbps", copied/busy.Seconds()/1e9)
	out.model.add("attempted", float64(a.copies))
	out.model.add("served", float64(a.copies))
	return out, nil
}

// plain times a plain copy() of src, in µs.
func (a *acopyMix) plain(src []byte) float64 {
	t0 := time.Now()
	copy(a.ref, src)
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}
