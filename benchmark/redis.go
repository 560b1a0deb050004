package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"copier/internal/apps/redis"
	"copier/internal/cycles"
	"copier/internal/sim"
	"copier/internal/units"
)

// redisRing is the recorder ring of one traced Redis segment.
// redis.Run drives its own simulation to the end, so the ring cannot
// be drained in slices: it must hold a whole segment's events.
const redisRing = 1 << 19

// redisLoop is redis-copier: redis.Run in Copier mode with closed-loop
// clients, once per segment. A round runs one segment per pairing of
// operation (GET, SET) and value class (4, 16, 64 KB), in seeded
// order; the seed also shortens each value by up to an eighth of its
// class, in 64-byte steps, and picks the key count.
type redisLoop struct {
	clients, opsPerClient int
}

var redisClasses = []units.Bytes{4 << 10, 16 << 10, 64 << 10}

type redisSegment struct {
	op   string
	size units.Bytes
}

func (w redisLoop) segments(r *rng) (segs []redisSegment, keys int) {
	for _, op := range []string{"get", "set"} {
		for _, c := range redisClasses {
			segs = append(segs, redisSegment{op: op, size: c - units.Bytes(64*r.intn(int(c)/512))})
		}
	}
	shuffle(r, segs)
	return segs, 16 + r.intn(49)
}

// runRedis calls redis.Run, turning a panic (redis.Run panics when a
// GET returns bytes other than the value stored) into an error.
func runRedis(cfg redis.Config) (res redis.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("redis %s %d B: %v", cfg.Op, cfg.ValueSize, p)
		}
	}()
	return redis.Run(cfg), nil
}

func (w redisLoop) round(seed uint64, round int, tr *tracer) (*roundOut, error) {
	segs, keys := w.segments(newRNG(seed, "redis", round))
	out := &roundOut{attempted: len(segs) * w.clients * w.opsPerClient}
	if err := tr.begin(); err != nil {
		return nil, err
	}
	var host time.Duration
	m := &out.model
	for _, sg := range segs {
		cfg := redis.Config{
			Mode: redis.ModeCopier, Op: sg.op, ValueSize: sg.size, Keys: keys,
			Clients: w.clients, OpsPerClient: w.opsPerClient,
			// The default machine size, spelled out so the busy fraction
			// has a known denominator: one core per client, the server's,
			// the Copier's, and one spare.
			Cores: w.clients + 3,
		}
		// redis.Run exposes no boundary between building its machine
		// and serving, so set-up is the whole cost of a run that
		// serves one request per client.
		fixed := cfg
		fixed.OpsPerClient = 1
		// Each redis.Run builds a 64 MB machine; collecting the last
		// one first keeps peak RSS from depending on GC timing. A
		// traced round skips it, so the profile holds only the
		// program's own collections.
		if tr == nil {
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if _, err := runRedis(fixed); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())

		if tr == nil {
			debug.FreeOSMemory()
		} else {
			sim.OnNewEnv = func(e *sim.Env) { tr.attach(e, redisRing) }
		}
		t0 = time.Now()
		res, err := runRedis(cfg)
		d := time.Since(t0)
		sim.OnNewEnv = nil
		if err != nil {
			return nil, err
		}
		host += d
		tr.drain()
		out.host.add("run_ns", float64(d.Nanoseconds()))
		out.host.add("virt_us", cycles.ToMicroseconds(res.Elapsed))

		if want := w.clients * w.opsPerClient; res.Ops != want || len(res.Latencies) != want {
			return nil, fmt.Errorf("redis %s %d B: %d ops, %d latencies, want %d", sg.op, sg.size, res.Ops, len(res.Latencies), want)
		}
		for _, l := range res.Latencies {
			m.obs("lat_us", cycles.ToMicroseconds(l))
		}
		m.add("attempted", float64(res.Ops))
		m.add("served", float64(len(res.Latencies)))
		m.add("bytes", float64(res.Ops)*float64(sg.size))
		m.add("clock_s", cycles.ToNanoseconds(res.Elapsed)/1e9)
		addCoreStats(m, res.CopierStats)
		m.add("kernel.busy", float64(res.TotalBusy))
		m.add("kernel.capacity", float64(res.Elapsed)*float64(cfg.Cores))
		m.add("kernel.copy_cycles", float64(res.CopyCycles))
	}
	tr.end()
	out.opsPerSec = float64(out.attempted) / host.Seconds()
	return out, nil
}
