package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"

	"copier/internal/obs"
	"copier/internal/sim"
)

// profileHz is the CPU-profile sampling rate of traced rounds, five
// times pprof's default so a traced run holds thousands of samples.
const profileHz = 500

// tracer is what a traced round records beyond an untraced one: a CPU
// profile of set-up and run (not of the output checks), and the obs
// event stream of the simulation. Round functions take a nil *tracer
// when untraced; every method is a no-op on nil.
type tracer struct {
	prof      bytes.Buffer
	profiling bool
	rec       *obs.Recorder
	seen      uint64
	// ev receives the event-derived evidence, which is as
	// deterministic as the simulation that emitted it.
	ev acc
}

// begin starts the round's CPU profile.
func (t *tracer) begin() error {
	if t == nil {
		return nil
	}
	// pprof.StartCPUProfile always asks for 100 Hz; setting the rate
	// first makes the runtime keep the higher one (it prints a warning
	// to stderr) and record it in the profile's header.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		runtime.SetCPUProfileRate(0)
		return fmt.Errorf("start CPU profile: %w", err)
	}
	t.profiling = true
	return nil
}

// end stops the CPU profile, so that output checks stay out of it.
func (t *tracer) end() {
	if t == nil || !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.profiling = false
}

// layerNs reduces the recorded profile to CPU ns per layer.
func (t *tracer) layerNs() (map[string]float64, error) {
	t.end()
	return reduceProfile(t.prof.Bytes())
}

// attach gives env a fresh recorder holding ring events.
func (t *tracer) attach(env *sim.Env, ring int) {
	if t == nil {
		return
	}
	t.rec = obs.NewRecorder(ring)
	t.seen = 0
	env.SetRecorder(t.rec)
}

// drain feeds every event emitted since the last drain into t.ev.
// Events the ring overwrote before they were drained count as
// obs.dropped, which fails the run's checks.
func (t *tracer) drain() {
	if t == nil || t.rec == nil {
		return
	}
	total := t.rec.Total()
	fresh := total - t.seen
	t.seen = total
	ring := uint64(t.rec.Cap())
	if fresh > ring {
		t.ev.add("obs.dropped", float64(fresh-ring))
		fresh = ring
	}
	retained := min(total, ring)
	skip := retained - fresh
	t.ev.add("ev.total", float64(fresh))
	t.rec.Events(func(e *obs.Event) {
		if skip > 0 {
			skip--
			return
		}
		switch e.Kind {
		case obs.EvTaskDispatch:
			t.ev.obs("ev.queue_wait_us", usOf(e.B))
		case obs.EvTaskComplete:
			t.ev.obs("ev.service_us", usOf(e.B))
		case obs.EvTrapReturn:
			t.ev.obs("ev.trap_us", usOf(e.Dur))
		case obs.EvATCacheHit:
			t.ev.add("ev.atcache_hit", 1)
		case obs.EvATCacheMiss:
			t.ev.add("ev.atcache_miss", 1)
		}
	})
}

// layerOf maps a profile frame's function name to its layer, or ""
// for a frame outside the copier module (the runtime, the standard
// library).
func layerOf(fn string) string {
	const internal = "copier/internal/"
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "sim", "core", "hw", "mem", "kernel", "libcopier", "obs", "acopy", "apps":
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "copier."):
		return "other"
	}
	return ""
}

// reduceProfile decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to the innermost frame that belongs to a copier
// layer, so map iteration under core counts as core and channel
// operations under sim count as sim. Samples with no copier frame go
// to "runtime".
func reduceProfile(gz []byte) (map[string]float64, error) {
	out := map[string]float64{}
	if len(gz) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples [][2][]uint64           // location ids, values
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var ids, vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids = appendPacked(ids, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			samples = append(samples, [2][]uint64{ids, vals})
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fnLayer := func(id uint64) string {
		if i := funcs[id]; i < uint64(len(strs)) {
			return layerOf(strs[i])
		}
		return ""
	}
	for _, s := range samples {
		ids, vals := s[0], s[1]
		if len(vals) == 0 {
			continue
		}
		layer := "runtime"
	walk:
		for _, loc := range ids {
			for _, fn := range locs[loc] {
				if l := fnLayer(fn); l != "" {
					layer = l
					break walk
				}
			}
		}
		// The last value of a CPU profile sample is its CPU time in ns.
		out[layer] += float64(vals[len(vals)-1])
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing each
// field's number and either its varint value or its bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value) or packed (a byte run of varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes one base-128 varint, returning its length (0 when
// b ends first).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
