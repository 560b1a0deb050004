// Conservative-lookahead parallel simulation: a ShardSet runs N
// shard environments on real OS threads while keeping every observable
// output bit-identical to a serial run.
//
// The construction is the classic Chandy–Misra–Bryant conservative
// window. All shards share one virtual timeline. Let gmin be the
// earliest pending event across all shards and L the lookahead (the
// minimum virtual latency of any cross-shard interaction). Every event
// in the window [gmin, gmin+L) can only schedule *cross-shard* work at
// time >= gmin+L, i.e. at or after the next window — so inside the
// window the shards are causally independent and may execute
// concurrently in any host order. Cross-shard events are exchanged
// only at window boundaries, merged in deterministic (time, source
// order) order and stamped with destination sequence numbers in that
// order, so heap order — never host scheduling — decides execution.
package sim

// The goroutines and sync here are host-level worker threads executing
// causally independent simulation windows; determinism is argued in
// the package comment above and enforced by the shards=1-vs-N
// byte-identity tests in internal/bench.
//copiervet:ignore-file det-go,det-sync host worker threads for causally independent lookahead windows; merge order is deterministic by construction and byte-identity between 1 and N workers is enforced by tests

import (
	"fmt"
	"sort"
	"sync"

	"copier/internal/obs"
)

// privateRingCap bounds each shard/job private recorder ring. Private
// rings keep parallel emission race-free; they are merged into the
// ambient recorder deterministically after the run. The cap is the
// same at every worker count, so retained-event sets (and therefore
// exports) cannot depend on the degree of parallelism.
const privateRingCap = 1 << 15

// crossEvent is a cross-shard event parked in a source outbox until
// the next window boundary.
type crossEvent struct {
	at  Time
	dst int
	fn  func()
}

// ShardSet is a group of shard environments advancing one shared
// virtual timeline under a conservative lookahead window. Shards may
// interact only through Send, with delay >= the lookahead.
type ShardSet struct {
	lookahead Time
	workers   int
	shards    []*Env
	outbox    [][]crossEvent // per-source; only the source's executor appends
	mergeBuf  []crossEvent
	recs      []*obs.Recorder
	ambient   *obs.Recorder
	ran       bool
	merged    bool

	windows        int64
	crossDelivered int64
}

// NewShardSet returns n shard environments coordinated with the given
// lookahead (the minimum virtual delay of any Send; must be positive)
// executed by `workers` host threads (values < 1 mean serial). When an
// ambient recorder is installed via OnNewEnv, each shard records into
// a private ring, deterministically merged into the ambient recorder
// when Run returns.
func NewShardSet(n int, lookahead Time, workers int) *ShardSet {
	if n < 1 {
		panic("sim: ShardSet needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: ShardSet lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	s := &ShardSet{
		lookahead: lookahead,
		workers:   workers,
		shards:    make([]*Env, n),
		outbox:    make([][]crossEvent, n),
		recs:      make([]*obs.Recorder, n),
	}
	if OnNewEnv != nil {
		// Probe what the harness attaches to environments, without
		// sharing the (non-thread-safe) recorder across shards.
		s.ambient = NewEnv().rec
	}
	for i := range s.shards {
		e := &Env{}
		if s.ambient != nil {
			rc := s.ambient.Cap()
			if rc > privateRingCap {
				rc = privateRingCap
			}
			s.recs[i] = obs.NewRecorder(rc)
			e.rec = s.recs[i]
		}
		s.shards[i] = e
	}
	return s
}

// Shard returns shard i's environment. Setup (processes, scheduling)
// happens directly against it before Run.
func (s *ShardSet) Shard(i int) *Env { return s.shards[i] }

// Windows returns how many lookahead windows Run executed.
func (s *ShardSet) Windows() int64 { return s.windows }

// CrossDelivered returns how many cross-shard events were delivered.
func (s *ShardSet) CrossDelivered() int64 { return s.crossDelivered }

// Send schedules fn on shard dst at shard src's now+d. d must be at
// least the lookahead — that is the contract that makes windows safe.
// It must be called from shard src's executing context (or before
// Run). fn runs in dst's event loop, not in a process context.
func (s *ShardSet) Send(src, dst int, d Time, fn func()) {
	if d < s.lookahead {
		panic(fmt.Sprintf("sim: ShardSet.Send: delay %d below lookahead %d", d, s.lookahead))
	}
	if src == dst {
		s.shards[src].Schedule(d, fn)
		return
	}
	e := s.shards[src]
	s.outbox[src] = append(s.outbox[src], crossEvent{at: e.now + d, dst: dst, fn: fn})
}

// Run executes all shards until every heap drains or the shared clock
// passes until. Like Env.Run it returns a *DeadlockError if processes
// remain blocked when everything drains (cross-shard events count as
// pending work, so a shard waiting on a remote completion is not a
// deadlock). Run may be called once per ShardSet.
func (s *ShardSet) Run(until Time) error {
	if s.ran {
		panic("sim: ShardSet.Run reentered")
	}
	s.ran = true
	for {
		s.drainOutboxes()
		gmin := Infinity
		for _, e := range s.shards {
			if !e.events.empty() {
				if at := e.events.peekAt(); at < gmin {
					gmin = at
				}
			}
		}
		if gmin == Infinity {
			err := s.deadlock()
			s.mergeRecorders()
			return err
		}
		if gmin > until {
			for _, e := range s.shards {
				if e.now < until {
					e.now = until
				}
			}
			s.mergeRecorders()
			return nil
		}
		// The window is [gmin, gmin+lookahead), cut off after until.
		last := gmin + (s.lookahead - tick)
		if last < gmin { // overflow
			last = Infinity
		}
		if last > until {
			last = until
		}
		s.runWindows(last)
		s.windows++
	}
}

// runWindows executes every shard's events at or before last:
// serially in shard order for one worker, otherwise statically
// partitioned round-robin across workers. The partition does not
// affect output — shards share no state inside a window.
func (s *ShardSet) runWindows(last Time) {
	if s.workers == 1 || len(s.shards) == 1 {
		for _, e := range s.shards {
			e.runWindow(last)
		}
		return
	}
	var wg sync.WaitGroup
	for j := 0; j < s.workers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := j; k < len(s.shards); k += s.workers {
				s.shards[k].runWindow(last)
			}
		}(j)
	}
	wg.Wait()
}

// drainOutboxes moves parked cross-shard events into destination
// heaps: concatenated in source order, stably sorted by time (so equal
// times keep source order), stamped with destination sequence numbers
// in that order. Runs only at window boundaries, single-threaded.
func (s *ShardSet) drainOutboxes() {
	buf := s.mergeBuf[:0]
	for i := range s.outbox {
		buf = append(buf, s.outbox[i]...)
		s.outbox[i] = s.outbox[i][:0]
	}
	if len(buf) > 1 {
		sort.SliceStable(buf, func(a, b int) bool { return buf[a].at < buf[b].at })
	}
	for _, ce := range buf {
		dst := s.shards[ce.dst]
		if ce.at < dst.now {
			panic(fmt.Sprintf("sim: cross-shard event at t=%d behind shard %d clock t=%d (lookahead violated)", ce.at, ce.dst, dst.now))
		}
		seq := dst.seq
		dst.seq++
		dst.events.schedule(ce.at, seq, ce.fn)
		s.crossDelivered++
	}
	s.mergeBuf = buf[:0]
}

// deadlock aggregates blocked processes across shards, mirroring
// Env.Run's report with shard-qualified names.
func (s *ShardSet) deadlock() error {
	nlive := 0
	for _, e := range s.shards {
		nlive += e.nlive
	}
	if nlive == 0 {
		return nil
	}
	var blocked []string
	var at Time
	for i, e := range s.shards {
		if e.now > at {
			at = e.now
		}
		for _, p := range e.procs {
			if p.started && !p.finished {
				blocked = append(blocked, fmt.Sprintf("shard%d:%s (%s)", i, p.name, p.blockedOn))
			}
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{At: at, Blocked: blocked}
}

// mergeRecorders replays shard-private recordings into the ambient
// recorder as one stream ordered by (time, shard index). Within a
// shard the ring is already time-ordered (virtual time only moves
// forward), so a k-way merge yields a total order independent of how
// many workers executed the windows.
func (s *ShardSet) mergeRecorders() {
	if s.ambient == nil || s.merged {
		return
	}
	s.merged = true
	events := make([][]obs.Event, len(s.recs))
	idx := make([]int, len(s.recs))
	total := 0
	for i, r := range s.recs {
		r.Events(func(ev *obs.Event) { events[i] = append(events[i], *ev) })
		total += len(events[i])
	}
	for n := 0; n < total; n++ {
		best := -1
		for i := range events {
			if idx[i] >= len(events[i]) {
				continue
			}
			if best < 0 || events[i][idx[i]].T < events[best][idx[best]].T {
				best = i
			}
		}
		s.ambient.Emit(events[best][idx[best]])
		idx[best]++
	}
}

// runWindow executes this environment's events at or before last.
// Unlike Run it neither reports deadlock (the shard may be waiting on
// a cross-shard event) nor advances the clock to last: the clock rests
// on the last executed event (or finished Wait) so cross-shard sends
// stamp real emission times. Cross-shard events arrive after last, so
// nothing can land in front of a Wait that takes the switch-free path
// inside the window.
func (e *Env) runWindow(last Time) {
	if e.running {
		panic("sim: runWindow reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.limit = last
	for !e.events.empty() && e.events.peekAt() <= last {
		at, fn, canceled := e.events.pop()
		if canceled {
			continue
		}
		e.now = at
		fn()
	}
}
