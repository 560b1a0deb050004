package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root mirrors the two tables below; a test keeps them in
// step in both directions.
type metricDef struct {
	name, unit, better string
	// bound is how far an end-to-end metric's median may worsen, as a
	// share of the baseline median, before a change counts as a
	// regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload a change to that layer should move.
	moves string
}

// endToEnd are the metrics a user of either product sees. Every
// workload reports all of them, each on the workload's own clock:
// virtual time of the modelled machine on the four simulated
// workloads, host time on acopy-mix.
//
// The bounds of the host-timed metrics are set from their ten-seed
// spread (README.md): on a shared 2-vCPU host that spread reaches 11–14%
// even after host-speed normalization, so a tighter bound would report
// the host's own drift as a regression.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "host_ops_per_s", unit: "1/s", better: "higher", bound: 0.20},
	{name: "host_peak_rss_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.20},
	{name: "p99_us", unit: "us", better: "lower", bound: 0.20},
	{name: "goodput_gbps", unit: "GB/s", better: "higher", bound: 0.20},
	{name: "served_frac", unit: "frac", better: "higher", bound: 0.02},
}

// hostLayers are the layers a CPU-profile sample is charged to: the
// copier packages by module name, "other" for the rest of the copier
// module (cycles, units, topo, fault, ...), "runtime" for samples with
// no copier frame (GC, the idle scheduler) and "bench" for this
// benchmark's own code.
var hostLayers = []string{"sim", "core", "hw", "mem", "kernel", "libcopier", "obs", "acopy", "apps", "other", "runtime", "bench"}

// hostLayerMoves is the prediction behind each layer's host self time.
var hostLayerMoves = map[string]string{
	"sim":       "host_ops_per_s on redis-copier and steady-flat",
	"core":      "host_ops_per_s on fleet-numa and worst-day; no change predicted on steady-flat and redis-copier",
	"hw":        "host_ops_per_s on steady-flat",
	"mem":       "setup_s and host_peak_rss_mb on fleet-numa and worst-day",
	"kernel":    "host_ops_per_s on redis-copier",
	"libcopier": "host_ops_per_s on redis-copier",
	"obs":       "none with tracing off; guarded by obs.overhead_frac",
	"acopy":     "host_ops_per_s and p50_us on acopy-mix; no change predicted on the simulated workloads",
	"apps":      "host_ops_per_s on redis-copier",
	"other":     "host_ops_per_s on fleet-numa",
	"runtime":   "host_ops_per_s and host_peak_rss_mb on every workload",
	"bench":     "none; the benchmark's own cost",
}

// acopySizes are acopy-mix's nine size classes, 256 B to 16 MB.
var acopySizes = []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

// sizeName spells a size class for a metric name: 256B, 4KB, 16MB.
func sizeName(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, l := range hostLayers {
		d = append(d, metricDef{name: "host." + l + ".ns_per_op", unit: "ns", better: "lower", moves: hostLayerMoves[l]})
	}
	fleet := "p99_us and host_ops_per_s on fleet-numa"
	worst := "served_frac and p99_us on worst-day"
	acopyE2E := "p50_us and host_ops_per_s on acopy-mix"
	d = append(d,
		metricDef{name: "core.submit_ns.p50", unit: "ns", better: "lower", moves: "host_ops_per_s on fleet-numa and steady-flat"},
		metricDef{name: "core.submit_ns.p99", unit: "ns", better: "lower", moves: "host_ops_per_s on fleet-numa and steady-flat"},
		metricDef{name: "sim.run_ns_per_sim_us", unit: "ns", better: "lower", moves: "host_ops_per_s on every simulated workload"},
		metricDef{name: "setup.mem_s", unit: "s", better: "lower", moves: "setup_s on fleet-numa and worst-day"},
		metricDef{name: "setup.core_s", unit: "s", better: "lower", moves: "setup_s on fleet-numa and worst-day"},
		metricDef{name: "setup.input_s", unit: "s", better: "lower", moves: "setup_s on every simulated workload"},
		metricDef{name: "acopy.submit_ns.p50", unit: "ns", better: "lower", moves: acopyE2E},
		metricDef{name: "acopy.submit_ns.p99", unit: "ns", better: "lower", moves: acopyE2E},
		metricDef{name: "acopy.wait_ns.p50", unit: "ns", better: "lower", moves: acopyE2E},
		metricDef{name: "acopy.wait_ns.p99", unit: "ns", better: "lower", moves: acopyE2E},
		metricDef{name: "acopy.release_ns.p50", unit: "ns", better: "lower", moves: acopyE2E},
		metricDef{name: "acopy.release_ns.p99", unit: "ns", better: "lower", moves: acopyE2E},
	)
	for _, n := range acopySizes {
		d = append(d, metricDef{name: "acopy.rtt_us.p50." + sizeName(n), unit: "us", better: "lower", moves: acopyE2E})
	}
	for _, n := range acopySizes {
		d = append(d, metricDef{name: "memmove_us.p50." + sizeName(n), unit: "us", better: "lower", moves: "none; the plain copy() baseline acopy-mix is judged against"})
	}
	d = append(d,
		metricDef{name: "acopy.crossover_bytes", unit: "B", better: "lower", moves: acopyE2E},
		metricDef{name: "core.atcache_hit_rate", unit: "frac", better: "higher", moves: fleet},
		metricDef{name: "core.dma_byte_frac", unit: "frac", better: "higher", moves: fleet},
		metricDef{name: "core.absorbed_byte_frac", unit: "frac", better: "higher", moves: "p99_us on redis-copier"},
		metricDef{name: "core.poll_sweeps_per_op", unit: "count", better: "lower", moves: fleet},
		metricDef{name: "core.remote_dma_frac", unit: "frac", better: "lower", moves: fleet},
		metricDef{name: "core.shed_deadline", unit: "count", better: "lower", moves: worst},
		metricDef{name: "core.resteered_chunks", unit: "count", better: "lower", moves: worst},
		metricDef{name: "core.quarantines", unit: "count", better: "lower", moves: worst},
		metricDef{name: "core.recover_us", unit: "us", better: "lower", moves: worst},
		metricDef{name: "core.queue_wait_us.p50", unit: "us", better: "lower", moves: fleet},
		metricDef{name: "core.queue_wait_us.p99", unit: "us", better: "lower", moves: fleet},
		metricDef{name: "core.service_us.p99", unit: "us", better: "lower", moves: fleet},
		metricDef{name: "core.slo_kops", unit: "kops", better: "higher", moves: "none with tracing off; the fleet-numa load ladder's highest rate within the 100 us p99 limit"},
		metricDef{name: "hw.dma_util.mean", unit: "frac", better: "lower", moves: fleet},
		metricDef{name: "hw.dma_util.max", unit: "frac", better: "lower", moves: fleet},
		metricDef{name: "kernel.core_busy_frac", unit: "frac", better: "lower", moves: "p99_us on redis-copier"},
		metricDef{name: "kernel.copy_cycle_frac", unit: "frac", better: "lower", moves: "p99_us on redis-copier"},
		metricDef{name: "kernel.trap_us.p50", unit: "us", better: "lower", moves: "p99_us on redis-copier"},
		metricDef{name: "kernel.trap_us.p99", unit: "us", better: "lower", moves: "p99_us on redis-copier"},
		metricDef{name: "obs.overhead_frac", unit: "frac", better: "lower", moves: "none; tracing is off in end-to-end runs"},
		metricDef{name: "obs.events_per_op", unit: "count", better: "lower", moves: "none; tracing is off in end-to-end runs"},
	)
	return d
}()

// value is one reported number. A value the host cannot measure is
// null with a reason, never a number. A layer or call boundary the
// workload never reaches did no work there: it reports 0, with the
// reason idleWhy.
type value struct {
	v       float64
	samples int
	null    bool
	why     string
}

const idleWhy = "not exercised by this workload"

var idle = value{why: idleWhy}

func measured(v float64, samples int) value {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return value{null: true, samples: samples, why: "not a finite number"}
	}
	return value{v: v, samples: samples}
}

func unmeasured(why string) value { return value{null: true, why: why} }

// quantile returns the exact quantile of xs at perMille/1000 by
// nearest rank (the smallest sample with at least that share of
// samples at or below it). It is null when fewer than ten samples lie
// beyond it, so no tail is read off a handful of points, and idle for
// an empty xs.
func quantile(xs []float64, perMille int) value {
	n := len(xs)
	if n == 0 {
		return idle
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (perMille*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return value{null: true, samples: n, why: fmt.Sprintf("%d samples leave fewer than ten beyond p%g", n, float64(perMille)/10)}
	}
	return measured(s[rank-1], n)
}

// median returns the middle of xs (the mean of the middle two for an
// even count), or idle for an empty xs.
func median(xs []float64) value {
	if len(xs) == 0 {
		return idle
	}
	_, m, _ := quartiles(xs)
	return measured(m, len(xs))
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) and
// statistics.median compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}

// ratio is num/den, idle when den is zero (nothing was done).
func ratio(num, den float64, samples int) value {
	if den == 0 {
		return idle
	}
	return measured(num/den, samples)
}

// acc gathers one kind of evidence across rounds: sums of counters
// and lists of samples, reduced to metrics once the run ends.
type acc struct {
	n map[string]float64
	s map[string][]float64
}

func (a *acc) add(k string, v float64) {
	if a.n == nil {
		a.n = map[string]float64{}
	}
	a.n[k] += v
}

func (a *acc) obs(k string, vs ...float64) {
	if a.s == nil {
		a.s = map[string][]float64{}
	}
	a.s[k] = append(a.s[k], vs...)
}

func (a *acc) merge(b *acc) {
	for k, v := range b.n {
		a.add(k, v)
	}
	for k, v := range b.s {
		a.obs(k, v...)
	}
}

// sameAs describes the first counter or sample list of a that b does
// not reproduce exactly, or returns "" when b agrees with a everywhere
// a has evidence (b may hold more).
func (a *acc) sameAs(b *acc) string {
	keys := make([]string, 0, len(a.n)+len(a.s))
	for k := range a.n {
		keys = append(keys, k)
	}
	for k := range a.s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if av, ok := a.n[k]; ok && av != b.n[k] {
			return fmt.Sprintf("%s: %v, then %v", k, av, b.n[k])
		}
		if as, ok := a.s[k]; ok {
			bs := b.s[k]
			if len(as) != len(bs) {
				return fmt.Sprintf("%s: %d samples, then %d", k, len(as), len(bs))
			}
			for i := range as {
				if as[i] != bs[i] {
					return fmt.Sprintf("%s[%d]: %v, then %v", k, i, as[i], bs[i])
				}
			}
		}
	}
	return ""
}
