package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readBenchmarkJSON(t)
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code measures %d by default", d.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range workloads(false) {
		names = append(names, w.name+": "+w.why)
	}
	var declared []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("workloads:\n code %q\n json %q", names, declared)
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, c)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, c)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, traced (which runs
// the untraced rounds too and checks that tracing changes no modeled
// result), and checks that both output lines name exactly the metrics
// BENCHMARK.json declares for them.
func TestSmoke(t *testing.T) {
	d := readBenchmarkJSON(t)
	want := map[int][]string{}
	for _, m := range d.EndToEnd {
		want[0] = append(want[0], m.Name)
	}
	for _, m := range d.PerLayer {
		want[1] = append(want[1], m.Name)
	}
	for _, w := range workloads(true) {
		rep, err := run(w, 7, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, trace := range []int{0, 1} {
			rep.Trace = trace
			res := rep.result()
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			exp := slices.Clone(want[trace])
			sort.Strings(exp)
			if !slices.Equal(got, exp) {
				t.Errorf("%s --trace %d emits %q, BENCHMARK.json declares %q", w.name, trace, got, exp)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %d: result %+v", w.name, trace, res)
			}
		}
	}
}

// TestSeeds: the same seed reproduces every modeled result; another
// seed draws other inputs and so other results.
func TestSeeds(t *testing.T) {
	w, _ := findWorkload("steady-flat", true)
	rn := w.open()
	var outs []*roundOut
	for _, seed := range []uint64{1, 1, 2} {
		o, err := rn.round(seed, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
	}
	if diff := outs[0].model.sameAs(&outs[1].model); diff != "" {
		t.Errorf("seed 1 twice differs: %s", diff)
	}
	if outs[0].model.sameAs(&outs[2].model) == "" {
		t.Error("seeds 1 and 2 gave identical modeled results")
	}
	o := workloads(false)[0].open().(openLoop)
	if a, b := o.schedule(newRNG(1, "s", 0)), o.schedule(newRNG(1, "s", 0)); !slices.Equal(a, b) {
		t.Error("seed 1 drew two different arrival schedules")
	}
	if slices.Equal(o.schedule(newRNG(1, "s", 0)), o.schedule(newRNG(2, "s", 0))) {
		t.Error("seeds 1 and 2 drew the same arrival schedule")
	}
	var rl redisLoop
	s1, k1 := rl.segments(newRNG(1, "redis", 0))
	s2, k2 := rl.segments(newRNG(2, "redis", 0))
	if slices.Equal(s1, s2) && k1 == k2 {
		t.Error("seeds 1 and 2 drew the same Redis segments")
	}
}

// TestQuantile checks the exact-quantile helper against a sort
// reference and the ten-beyond rule.
func TestQuantile(t *testing.T) {
	r := newRNG(3, "q", 0)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(r.intn(1 << 20))
	}
	ref := slices.Clone(xs)
	sort.Float64s(ref)
	for _, c := range []struct{ perMille, rank int }{{500, 500}, {990, 990}, {1, 1}} {
		v := quantile(xs, c.perMille)
		if v.null || v.v != ref[c.rank-1] || v.samples != 1000 {
			t.Errorf("p%g = %+v, want %v", float64(c.perMille)/10, v, ref[c.rank-1])
		}
	}
	if v := quantile(xs[:999], 990); !v.null {
		t.Errorf("p99 of 999 samples (9 beyond) = %+v, want null", v)
	}
	if v := quantile(xs[:1000], 990); v.null {
		t.Errorf("p99 of 1000 samples (10 beyond) is null: %s", v.why)
	}
	if v := quantile(nil, 500); v.null || v.v != 0 || v.why != idleWhy {
		t.Errorf("quantile of nothing = %+v, want idle", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	seq := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, m, q3 := quartiles(seq); q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb []byte

func (p pb) key(field, wire int) pb {
	return p.raw(uint64(field<<3 | wire))
}

func (p pb) raw(v uint64) pb {
	for v >= 0x80 {
		p = append(p, byte(v)|0x80)
		v >>= 7
	}
	return append(p, byte(v))
}

func (p pb) varint(field int, v uint64) pb { return p.key(field, 0).raw(v) }

func (p pb) msg(field int, b []byte) pb {
	return append(p.key(field, 2).raw(uint64(len(b))), b...)
}

func (p pb) packed(field int, vs ...uint64) pb {
	var b pb
	for _, v := range vs {
		b = b.raw(v)
	}
	return p.msg(field, b)
}

// TestReduceProfile charges a synthetic profile's samples: a runtime
// frame goes to its innermost copier caller, an inlined runtime frame
// to the copier function it was inlined into, a stack without copier
// frames to runtime, and the shares add up to the whole.
func TestReduceProfile(t *testing.T) {
	names := []string{"",
		"copier/internal/core.(*ATCache).InsertW", // 1
		"runtime.mapiternext",                     // 2
		"copier/internal/sim.(*Proc).yield",       // 3
		"runtime.chanrecv1",                       // 4
		"runtime.gcBgMarkWorker",                  // 5
		"main.(*openLoop).round",                  // 6
		"copier/internal/apps/redis.Run",          // 7
		"copier/internal/units.Bytes.Pages",       // 8
		"runtime.memmove",                         // 9
	}
	var p pb
	for fn := 1; fn < len(names); fn++ {
		p = p.msg(5, pb(nil).varint(1, uint64(fn)).varint(2, uint64(fn)))
		// Location fn holds function fn alone.
		p = p.msg(4, pb(nil).varint(1, uint64(fn)).msg(4, pb(nil).varint(1, uint64(fn))))
	}
	// Location 100: memmove inlined into InsertW.
	p = p.msg(4, pb(nil).varint(1, 100).
		msg(4, pb(nil).varint(1, 9)).
		msg(4, pb(nil).varint(1, 1)))
	sample := func(ns uint64, locs ...uint64) {
		s := pb(nil).packed(1, locs...).packed(2, 1, ns)
		if len(locs) == 1 {
			s = pb(nil).varint(1, locs[0]).packed(2, 1, ns)
		}
		p = p.msg(2, s)
	}
	sample(30, 2, 1, 6) // map iteration under core
	sample(20, 4, 3, 6) // channel receive under sim
	sample(10, 5)       // GC worker: no copier frame
	sample(5, 100, 6)   // inlined memmove in core
	sample(7, 6)        // the benchmark itself
	sample(3, 9, 8, 7)  // units (other) called from apps
	sample(11, 4, 3, 7) // sim under apps: innermost wins
	for _, s := range names {
		p = p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	got, err := reduceProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": 35, "sim": 31, "runtime": 10, "bench": 7, "other": 3}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	var sum float64
	for l, ns := range got {
		sum += ns
		if want[l] != ns {
			t.Errorf("%s: %v ns, want %v", l, ns, want[l])
		}
	}
	if math.Abs(sum/86-1) > 1e-12 {
		t.Errorf("shares sum to %v of the profile", sum/86)
	}
	for _, l := range []string{"core", "sim", "runtime", "bench", "other"} {
		if !slices.Contains(hostLayers, l) {
			t.Errorf("layer %s missing from hostLayers", l)
		}
	}
}

// TestCompare: identical sets agree; a set whose throughput fell by
// more than its bound, or whose seed-determined latency moved, does
// not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, p99 float64) string {
		var b bytes.Buffer
		for i := 0; i < 3; i++ {
			v1, v2 := ops*(1+0.01*float64(i)), p99
			rep := report{Workload: "w", Seed: 1, Metrics: []metricOut{
				{Name: "host_ops_per_s", Value: &v1, Unit: "1/s"},
				{Name: "p99_us", Value: &v2, Unit: "us", Exact: true},
			}}
			json.NewEncoder(&b).Encode(rep)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", 1000, 50)
	for _, c := range []struct {
		name     string
		ops, p99 float64
		agree    bool
	}{
		{"same", 1000, 50, true},
		{"slower", 500, 50, false},
		{"moved", 1000, 50.5, false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, a, write(c.name, c.ops, c.p99))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.agree {
			t.Errorf("%s: agree=%v, want %v\n%s", c.name, ok, c.agree, out.String())
		}
	}
}
