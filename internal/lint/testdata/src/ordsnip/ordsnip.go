// Package ordsnip is ordlint's golden corpus: one compilable file per
// defect class plus the precision pins that keep the analyzer honest.
// Every `want` comment below marks an expected finding; everything
// else must stay clean, byte for byte, under the golden test.
package ordsnip

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Box is the governed type: ready's store is the publish point for
// payload and count, its load the consume point.
//
//copier:ordered type Box
//copier:ordered word ready guards=payload,count
type Box struct {
	ready   atomic.Uint32
	payload []byte
	count   int
}

// --- pub-before-init ---------------------------------------------------

// publishThenWrite is the defect the rule exists for: the release
// store makes payload visible before it holds anything.
func publishThenWrite(b *Box, p []byte) {
	b.ready.Store(1) // the publish the trace points back to
	b.payload = p    // want pub-before-init
}

// setAndPublish is the clean protocol: every guarded write happens
// before the release store.
func setAndPublish(b *Box, p []byte) {
	b.payload = p
	b.count = len(p)
	b.ready.Store(1)
}

// publishTwice shows the interprocedural trace: the publish happens
// inside setAndPublish, the late write here.
func publishTwice(b *Box, p []byte) {
	setAndPublish(b, p)
	b.count = len(p) // want pub-before-init (published at the call line)
}

// initUnderIgnore is the reasoned exception pattern: a boot-time
// writer that provably has no concurrent reader yet.
func initUnderIgnore(b *Box, p []byte) {
	b.ready.Store(1)
	//copiervet:ignore pub-before-init boot-time init before any reader goroutine starts
	b.payload = p
}

// recycle is the clear pin: a zero store is a reset, not a publish —
// the resetter owns the guarded fields again.
func recycle(b *Box) {
	b.ready.Store(0)
	b.payload = nil
	b.count = 0
}

// --- unordered-read ----------------------------------------------------

// readBack reads a guarded field it no longer owns: the publish gave
// it away.
func readBack(b *Box, p []byte) int {
	b.payload = p
	b.ready.Store(1)
	return b.count // want unordered-read (published above)
}

// usePayload reads guarded state without consuming; as an entry
// parameter that becomes a summary requirement, checked at every
// call site instead of here.
func usePayload(b *Box) int {
	return b.count
}

// spawnRawReader hands the box to a fresh goroutine (no ordering
// edges) and reads without an acquire.
func spawnRawReader(b *Box) {
	go func() {
		_ = b.payload // want unordered-read (raw in a new goroutine)
	}()
}

// spawnRawCaller violates the same contract one call deep: the
// requirement usePayload recorded is checked at this call site.
func spawnRawCaller(b *Box) {
	go func() {
		_ = usePayload(b) // want unordered-read (callee requires ready)
	}()
}

// spawnAcquiringReader is the matching pin: the consume load
// dominates both reads.
func spawnAcquiringReader(b *Box) {
	go func() {
		if b.ready.Load() == 1 {
			_ = b.payload
			_ = usePayload(b)
		}
	}()
}

// handoff orders itself through a channel receive — a memory-model
// edge, so no requirement is recorded and spawnHandoff stays clean.
func handoff(b *Box, ch chan struct{}) int {
	<-ch
	return b.count
}

func spawnHandoff(b *Box, ch chan struct{}) {
	go handoff(b, ch)
}

// lockedReader pins the sync.* launder: any mutex operation is an
// ordering edge.
func lockedReader(b *Box, mu *sync.Mutex) int {
	go func() {
		mu.Lock()
		defer mu.Unlock()
		_ = b.count
	}()
	mu.Lock()
	defer mu.Unlock()
	return b.count
}

// localOwner pins owner-on-define: a locally created Box is owned;
// writing and reading it without atomics is fine until it escapes.
func localOwner(p []byte) int {
	b := &Box{}
	b.payload = p
	b.count = len(p)
	return b.count
}

// --- raw-atomic --------------------------------------------------------

// oldRing reproduces the real finding ordlint landed with: acopy's
// MPSC ring paired a typed atomic.Uint64 head with raw atomic calls
// on a plain uint64 tail (fixed in the same change by typing tail).
type oldRing struct {
	head atomic.Uint64
	tail uint64
}

func (r *oldRing) size() uint64 {
	return r.head.Load() - atomic.LoadUint64(&r.tail) // want raw-atomic
}

func (r *oldRing) advance() {
	atomic.AddUint64(&r.tail, 1) // want raw-atomic
}

// plainCounter has no typed field at all, so nothing marks n as
// shared: the raw add races the plain read in get. Typing n as
// atomic.Int64 would make that read a compile error.
type plainCounter struct {
	n int64
}

func (c *plainCounter) inc() {
	atomic.AddInt64(&c.n, 1) // want raw-atomic
}

func (c *plainCounter) get() int64 {
	return c.n
}

// bumpVia reaches its word through a pointer, not a &x.f operand.
func bumpVia(p *uint32) {
	atomic.AddUint32(p, 1) // want raw-atomic
}

// hits is a package-level word.
var hits int64

func countHit() {
	atomic.AddInt64(&hits, 1) // want raw-atomic
}

// --- spin-unbounded ----------------------------------------------------

// spinNoSite polls an atomic with no declared spin site.
func spinNoSite(b *Box) {
	for b.ready.Load() == 0 { // want spin-unbounded
		runtime.Gosched()
	}
}

// spinNoEscape declares the site but never yields, parks, or exits —
// a pure burn loop.
//
//copier:spin waits for the publisher (BROKEN: no yield, for the golden test)
func spinNoEscape(b *Box) {
	for b.ready.Load() == 0 { // want spin-unbounded (no escape)
	}
}

// consume is the clean annotated spin: declared reason, Gosched
// escape, and the acquire load makes the later read ordered.
func consume(b *Box) []byte {
	//copier:spin publisher flips ready exactly once after init; yields every iteration
	for b.ready.Load() == 0 {
		runtime.Gosched()
	}
	return b.payload
}

// bump pins the CAS carve-out: a retry loop is not a poll.
func bump(c *atomic.Uint64) {
	for {
		v := c.Load()
		if c.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// countReady pins the bounded-loop exemption: an index scan over a
// slice reads atomics but terminates on its own.
func countReady(bs []*Box) int {
	n := 0
	for i := 0; i < len(bs); i++ {
		if bs[i].ready.Load() == 1 {
			n++
		}
	}
	return n
}
