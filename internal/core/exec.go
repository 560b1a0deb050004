package core

import (
	"fmt"

	"copier/internal/cycles"
	"copier/internal/fault"
	"copier/internal/hw"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/units"
)

// srcPart is one resolved source piece of a Copy Task, in destination
// order. Layered absorption (§4.4) may redirect a piece to a deeper
// source than the task's nominal Src.
type srcPart struct {
	as  *mem.AddrSpace
	va  mem.VA
	len units.Bytes
	// absorbed marks pieces redirected past a pending intermediate
	// copy.
	absorbed bool
}

// resolveSources computes where each byte of t must be read from,
// looking through pending (unexecuted) earlier copies onto t's source
// range. For ranges whose intermediate-buffer segments are marked in
// the earlier task's descriptor, the intermediate holds current data
// (it was copied, and may have been legally modified after csync) —
// read from it. Unmarked ranges are read from the earlier task's own
// source, resolved recursively (§4.4 layered absorption, Fig. 8-b).
// The result lives in c.partsBuf and is valid until the next
// resolution for the same client.
func (s *Service) resolveSourcesRange(ctx Ctx, c *Client, t *Task, off, n units.Bytes) []srcPart {
	if !s.cfg.EnableAbsorption {
		c.partsBuf = append(c.partsBuf[:0], srcPart{as: t.SrcAS, va: t.Src + mem.VA(off), len: n})
		return c.partsBuf
	}
	ctx.Exec(cycles.AbsorptionCheck)
	parts := s.resolveRange(ctx, c, t.SrcAS, t.Src+mem.VA(off), n, t.orderIdx, 0, c.partsBuf[:0])
	c.partsBuf = coalesceParts(parts)
	return c.partsBuf
}

// coalesceParts merges adjacent pieces with the same source stream —
// per-segment resolution produces many 1-segment parts, and merging
// them yields larger subtasks (better DMA eligibility, §4.3).
func coalesceParts(parts []srcPart) []srcPart {
	if len(parts) < 2 {
		return parts
	}
	out := parts[:1]
	for _, p := range parts[1:] {
		last := &out[len(out)-1]
		if p.as == last.as && p.absorbed == last.absorbed && last.va+mem.VA(last.len) == p.va {
			last.len += p.len
			continue
		}
		out = append(out, p)
	}
	return out
}

const maxAbsorbDepth = 8

// resolveRange appends the resolved pieces of [va, va+n) to out and
// returns the extended slice (an accumulator, so recursion does not
// allocate intermediate slices).
func (s *Service) resolveRange(ctx Ctx, c *Client, as *mem.AddrSpace, va mem.VA, n units.Bytes, before uint64, depth int, out []srcPart) []srcPart {
	if n <= 0 {
		return out
	}
	if depth >= maxAbsorbDepth {
		return append(out, srcPart{as: as, va: va, len: n})
	}
	// Find the latest earlier pending task writing into [va, va+n).
	var latest *Task
	for i := len(c.pending) - 1; i >= 0; i-- {
		p := c.pending[i]
		ctx.Exec(cycles.DependencyCheck)
		if p.orderIdx >= before || p.executed || p.aborted {
			continue
		}
		if p.dstOverlap(as, va, n) {
			latest = p
			break
		}
	}
	if latest == nil {
		return append(out, srcPart{as: as, va: va, len: n, absorbed: depth > 0})
	}
	// Piece before the overlap.
	if va < latest.Dst {
		pre := units.Bytes(latest.Dst - va)
		if pre > n {
			pre = n
		}
		out = s.resolveRange(ctx, c, as, va, pre, latest.orderIdx, depth, out)
		va += mem.VA(pre)
		n -= pre
	}
	// Overlapping piece: consult the earlier task's descriptor
	// segment by segment.
	if n > 0 && va < latest.Dst+mem.VA(latest.Len) {
		end := latest.Dst + mem.VA(latest.Len)
		mid := n
		if units.Bytes(end-va) < mid {
			mid = units.Bytes(end - va)
		}
		off := units.Bytes(va - latest.Dst) // offset within latest's dst
		remaining := mid
		cur := off
		for remaining > 0 {
			segEnd := (cur/latest.SegSize + 1) * latest.SegSize
			chunk := segEnd - cur
			if chunk > remaining {
				chunk = remaining
			}
			if latest.Desc.Ready(cur, chunk) {
				// Data already landed in the intermediate buffer (and
				// may have been modified there) — read it directly.
				out = append(out, srcPart{as: as, va: latest.Dst + mem.VA(cur), len: chunk})
			} else {
				// Absorb: read from the earlier task's source. Mark
				// the appended suffix in place.
				start := len(out)
				out = s.resolveRange(ctx, c, latest.SrcAS, latest.Src+mem.VA(cur), chunk, latest.orderIdx, depth+1, out)
				for i := start; i < len(out); i++ {
					out[i].absorbed = true
				}
			}
			cur += chunk
			remaining -= chunk
		}
		va += mem.VA(mid)
		n -= mid
	}
	// Piece after the overlap.
	if n > 0 {
		out = s.resolveRange(ctx, c, as, va, n, latest.orderIdx, depth, out)
	}
	return out
}

// executeWithDeps executes the [lo, hi) window of t after first
// executing every earlier pending task t truly depends on: tasks
// whose source t's destination would overwrite, and tasks writing the
// same destination bytes (§4.2.2). Chains onto t's *source* are not
// dependencies — absorption reads through them. Dependency analysis
// is whole-task (conservative); execution honors the window, which is
// how Sync Tasks raise the priority of individual segments (§4.1).
func (s *Service) executeWithDeps(ctx Ctx, c *Client, t *Task, lo, hi units.Bytes, depth int) {
	if t.executed || t.aborted || t.pendingErr != nil {
		return
	}
	if depth > 64 {
		panic("core: dependency chain too deep")
	}
	s.runDeps(ctx, c, t, depth+1)
	reqs := [1]execReq{{t, lo, hi}}
	s.executeBatch(ctx, c, reqs[:])
}

// runDeps executes, whole and at chain depth depth, every earlier
// pending copy task t depends on, and waits out each one's outstanding
// DMA so t's write cannot race it. The dependencies are snapshotted
// first: executing them compacts c.pending.
func (s *Service) runDeps(ctx Ctx, c *Client, t *Task, depth int) {
	var deps []*Task
	for _, p := range c.pending {
		if p.orderIdx >= t.orderIdx || p.executed || p.aborted {
			continue
		}
		ctx.Exec(cycles.DependencyCheck)
		if s.dependsOn(p, t) {
			deps = append(deps, p)
		}
	}
	for _, p := range deps {
		s.executeWithDeps(ctx, c, p, 0, p.Len, depth)
		s.awaitInFlight(ctx, p)
	}
}

// dependsOn reports whether t must wait for earlier pending task p:
// p's source would be overwritten by t, or both write the same bytes.
// A chain onto t's source is normally resolved by absorption (§4.4)
// rather than ordering; with absorption disabled it becomes a hard
// dependency.
func (s *Service) dependsOn(p, t *Task) bool {
	if p.srcOverlap(t.DstAS, t.Dst, t.Len) || p.dstOverlap(t.DstAS, t.Dst, t.Len) {
		return true
	}
	if !s.cfg.EnableAbsorption && p.dstOverlap(t.SrcAS, t.Src, t.Len) {
		return true
	}
	return false
}

// execReq is one task window submitted to a dispatcher round.
type execReq struct {
	t      *Task
	lo, hi units.Bytes // dst-offset window; clamped to segment boundaries
}

// chunk is a copy piece not crossing a segment boundary of its task,
// with both sides resolved to single physically contiguous runs
// (prepareRun splits at contiguity breaks). A chunk is DMA-eligible
// when it is large enough to amortize a descriptor.
type chunk struct {
	task     *Task
	dstOff   units.Bytes // offset within task dst
	length   units.Bytes
	dst, src hw.FrameRange
	absorbed bool
}

func (ch *chunk) dmaEligible(minLen units.Bytes) bool {
	return ch.length >= minLen
}

// executeBatch runs one dispatcher round over the given tasks
// (i-piggyback when a single large task, e-piggyback when several
// adjacent small tasks were fused by the caller, §4.3). The round's
// chunks accumulate in the client's scratch buffer; it is fully
// dispatched before executeBatch returns, so the buffer is free for
// the next round.
func (s *Service) executeBatch(ctx Ctx, c *Client, reqs []execReq) {
	chunks := c.chunkBuf[:0]
	prepared := false
	for _, r := range reqs {
		if r.t.executed || r.t.aborted || r.t.pendingErr != nil {
			continue
		}
		if !r.t.dispatched {
			s.env.Recorder().At(obs.EvTaskDispatch, int64(s.now()), c.Name, int64(r.t.ID), int64(s.now()-r.t.enqueuedAt))
		}
		r.t.dispatched = true
		mark := len(chunks)
		out, err := s.prepare(ctx, c, r.t, r.lo, r.hi, chunks)
		if err != nil {
			chunks = out[:mark]
			s.failTask(ctx, c, r.t, err)
			continue
		}
		chunks = out
		prepared = true
	}
	c.chunkBuf = chunks
	if !prepared {
		return
	}
	s.dispatch(ctx, c, chunks)
	for _, r := range reqs {
		if r.t.segDone >= r.t.Len {
			s.finishTask(ctx, c, r.t)
		}
	}
	c.removeExecuted()
}

// awaitInFlight spins until t has no outstanding DMA descriptors.
// Needed before a later task may overwrite t's destination, before t
// is finalized, and before teardown drops t's pins. Spinning on the
// in-flight counter — not on descriptor bit comparison — means a
// failed transfer (which never marks its segments) still unblocks the
// waiter: the completion callback decrements the counter and
// broadcasts on success and failure alike.
func (s *Service) awaitInFlight(ctx Ctx, t *Task) {
	if t.inflight == 0 {
		return
	}
	sig := t.Desc.Watch()
	for t.inflight > 0 {
		ctx.Exec(cycles.DMACompletionCheck)
		if t.inflight == 0 {
			return
		}
		ctx.SpinUntil(sig)
	}
}

// noteFailure records one transient engine failure on t: bounded
// exponential backoff while retries remain, otherwise a pending
// permanent failure the next service sweep finalizes via failTask.
// Granted retries draw from the global retry budget so a correlated
// failure burst cannot amplify into a retry storm; chunks whose engine
// died permanently are re-steers, exempt from the budget (replacing
// lost hardware is not load amplification) but still bounded by
// MaxRetries so a fleet with no surviving route converges to a
// definite error.
func (s *Service) noteFailure(t *Task, err error) {
	resteer := err == hw.ErrEngineDead
	t.retries++
	if t.retries > s.cfg.MaxRetries {
		if t.pendingErr == nil {
			t.pendingErr = fmt.Errorf("core: task %d gave up after %d transient failures: %w",
				t.ID, t.retries-1, err)
		}
		return
	}
	if resteer {
		s.Stats.ResteeredChunks++
	} else if !s.takeRetryToken(s.now()) {
		// Budget dry: the failure becomes definite instead of retrying.
		s.Stats.RetryDenied++
		if t.pendingErr == nil {
			t.pendingErr = fmt.Errorf("core: task %d retry denied by budget: %w", t.ID, err)
		}
		s.env.Recorder().At(obs.EvTaskShed, int64(s.now()), t.Client.Name, int64(t.ID), shedRetryBudget)
		return
	}
	shift := uint(t.retries - 1)
	if shift > 6 {
		shift = 6
	}
	t.retryAt = s.now() + retryBackoff<<shift
	s.Stats.RetriedChunks++
	s.env.Recorder().At(obs.EvTaskRetry, int64(s.now()), t.Client.Name, int64(t.ID), int64(t.retries))
}

// prepare resolves sources, proactively handles faults, pins pages and
// splits the [lo, hi) window of the task into chunks, skipping
// segments that already completed in a prior (promoted) round
// (§4.5.4, §4.3, §4.1). New chunks are appended to chunks; the
// (possibly grown) slice is returned even on error so the caller can
// truncate back to its mark.
func (s *Service) prepare(ctx Ctx, c *Client, t *Task, lo, hi units.Bytes, chunks []chunk) ([]chunk, error) {
	if t.phys() {
		return s.preparePhys(t, chunks)
	}
	// Security checks: user-mode tasks may only address the client's
	// own user address space (§4.5.4: "illegal kernel addresses").
	if !t.KMode && (t.SrcAS != c.UAS || t.DstAS != c.UAS) {
		return chunks, fmt.Errorf("core: u-mode task %d references foreign address space", t.ID)
	}
	// Clamp the window to segment boundaries.
	if lo < 0 {
		lo = 0
	}
	lo = lo / t.SegSize * t.SegSize
	if hi > t.Len || hi <= 0 {
		hi = t.Len
	} else {
		hi = (hi + t.SegSize - 1) / t.SegSize * t.SegSize
		if hi > t.Len {
			hi = t.Len
		}
	}
	if t.issued == nil {
		t.issued = s.takeIssued(t.Dst, t)
	}
	// Walk maximal runs of not-yet-issued segments inside the window.
	for runLo := lo; runLo < hi; {
		segLen := t.SegSize
		if runLo+segLen > t.Len {
			segLen = t.Len - runLo
		}
		if t.issued.Ready(runLo, segLen) {
			runLo += segLen
			continue
		}
		runHi := runLo
		for runHi < hi {
			sl := t.SegSize
			if runHi+sl > t.Len {
				sl = t.Len - runHi
			}
			if t.issued.Ready(runHi, sl) {
				break
			}
			runHi += sl
		}
		if runHi > t.Len {
			runHi = t.Len
		}
		var err error
		chunks, err = s.prepareRun(ctx, c, t, runLo, runHi, chunks)
		if err != nil {
			s.unpinAll(ctx, t.pins)
			t.pins = t.pins[:0]
			return chunks, err
		}
		runLo = runHi
	}
	return chunks, nil
}

// prepareRun resolves, pins and chunks one contiguous unmarked run
// [lo, hi) of task t, appending to chunks.
func (s *Service) prepareRun(ctx Ctx, c *Client, t *Task, lo, hi units.Bytes, chunks []chunk) ([]chunk, error) {
	runLen := hi - lo
	parts := s.resolveSourcesRange(ctx, c, t, lo, runLen)
	if err := s.faultAndPin(ctx, t.DstAS, t.Dst+mem.VA(lo), runLen, true); err != nil {
		return chunks, err
	}
	if t.pins == nil {
		if n := len(s.sparePins); n > 0 {
			t.pins = s.sparePins[n-1]
			s.sparePins[n-1] = nil
			s.sparePins = s.sparePins[:n-1]
		}
	}
	t.pins = append(t.pins, pinRec{t.DstAS, t.Dst + mem.VA(lo), runLen})
	for _, p := range parts {
		if err := s.faultAndPin(ctx, p.as, p.va, p.len, false); err != nil {
			return chunks, err
		}
		t.pins = append(t.pins, pinRec{p.as, p.va, p.len})
	}

	// Build chunks: walk the destination, consuming source parts,
	// splitting at physical-contiguity breaks on either side and
	// capping pieces at dmaPieceMax so the dispatcher can balance
	// work between units at piece granularity.
	dstOff := lo
	pi := 0
	pOff := units.Bytes(0)
	for dstOff < hi {
		if pi >= len(parts) {
			panic("core: source parts shorter than run")
		}
		p := parts[pi]
		n := hi - dstOff
		if rem := p.len - pOff; rem < n {
			n = rem
		}
		if n > dmaPieceMax {
			n = dmaPieceMax
		}
		// Split by physical contiguity of both sides.
		if run := s.contig(t.DstAS, t.Dst+mem.VA(dstOff), n); run < n {
			n = run
		}
		if run := s.contig(p.as, p.va+mem.VA(pOff), n); run < n {
			n = run
		}
		chunks = append(chunks, chunk{
			task:     t,
			dstOff:   dstOff,
			length:   n,
			dst:      s.frameRange(t.DstAS, t.Dst+mem.VA(dstOff), n),
			src:      s.frameRange(p.as, p.va+mem.VA(pOff), n),
			absorbed: p.absorbed,
		})
		if p.absorbed {
			s.Stats.AbsorbedBytes += int64(n)
		}
		dstOff += n
		pOff += n
		if pOff == p.len {
			pi++
			pOff = 0
		}
	}
	return chunks, nil
}

// dmaPieceMax caps chunk size so DMA/AVX balancing works at piece
// granularity (subtasks larger than this are cut).
const dmaPieceMax = 8 << 10

// takeIssued returns an issued tracker for t's destination at base,
// reusing one a finished task gave back when there is one.
func (s *Service) takeIssued(base mem.VA, t *Task) *Descriptor {
	n := len(s.spareIssued)
	if n == 0 {
		return NewDescriptor(base, t.Len, t.SegSize)
	}
	d := s.spareIssued[n-1]
	s.spareIssued[n-1] = nil
	s.spareIssued = s.spareIssued[:n-1]
	d.init(base, t.Len, t.SegSize)
	return d
}

// preparePhys builds the execution plan of a physically-addressed
// kernel task: no translation, faults or pinning — just zip the
// source and destination scatter lists into dispatch pieces,
// appending to chunks.
func (s *Service) preparePhys(t *Task, chunks []chunk) ([]chunk, error) {
	if !t.KMode {
		return chunks, fmt.Errorf("core: physically-addressed task %d from user mode", t.ID)
	}
	if hw.TotalLen(t.PhysDst) != t.Len || hw.TotalLen(t.PhysSrc) != t.Len {
		return chunks, fmt.Errorf("core: phys task %d scatter lists disagree with length %d", t.ID, t.Len)
	}
	if t.issued == nil {
		t.issued = s.takeIssued(0, t)
	}
	di, si := 0, 0
	var dOff, sOff, dstOff units.Bytes
	for dstOff < t.Len {
		d, sr := t.PhysDst[di], t.PhysSrc[si]
		n := d.Len - dOff
		if r := sr.Len - sOff; r < n {
			n = r
		}
		if n > dmaPieceMax {
			n = dmaPieceMax
		}
		chunks = append(chunks, chunk{
			task:   t,
			dstOff: dstOff,
			length: n,
			dst:    subRange(d, dOff, n),
			src:    subRange(sr, sOff, n),
		})
		dstOff += n
		dOff += n
		sOff += n
		if dOff == d.Len {
			di++
			dOff = 0
		}
		if sOff == sr.Len {
			si++
			sOff = 0
		}
	}
	return chunks, nil
}

// pinRec records one pinned range on a task; unpinAll balances it.
// Building a pinRec transfers the open pin obligation into the task's
// pin list (lifelint tracks it no further).
//
//copier:lifecycle transfer pin pinRec
type pinRec struct {
	as *mem.AddrSpace
	va mem.VA
	n  units.Bytes
}

// contig returns the physically contiguous run length at va (pages are
// present — prepare faulted them in).
func (s *Service) contig(as *mem.AddrSpace, va mem.VA, max units.Bytes) units.Bytes {
	r := as.ContigRun(va, max)
	if r <= 0 {
		panic(fmt.Sprintf("core: contig on non-present page %#x", uint64(va)))
	}
	return r
}

// frameRange translates a physically contiguous VA run.
func (s *Service) frameRange(as *mem.AddrSpace, va mem.VA, n units.Bytes) hw.FrameRange {
	f, off, err := as.Translate(va)
	if err != nil {
		panic(err)
	}
	return hw.FrameRange{Frame: f, Off: units.Bytes(off), Len: n}
}

// faultAndPin walks the pages of [va, va+n), translating through the
// ATCache, proactively resolving faults in Copier's own context, and
// pinning the mappings (§4.5.4). Costs: ATCacheHit on hits; PageWalk +
// fault handling on misses; batched get_user_pages-style pinning
// (kernel pages are unswappable and are not pinned). On success the
// caller owns the pins (and must record or release them); on error the
// walk rolled everything back.
//
//copier:lifecycle holds pin
func (s *Service) faultAndPin(ctx Ctx, as *mem.AddrSpace, va mem.VA, n units.Bytes, write bool) error {
	if n <= 0 {
		return nil
	}
	pinning := as != s.kernelAS
	npinned := 0
	start := va & ^mem.VA(mem.PageSize-1)
	for pva := start; pva < va+mem.VA(n); pva += mem.PageSize {
		vpn := pva.Page()
		if s.cfg.EnableATCache {
			// A cached translation skips the walk and fault
			// classification entirely; write hits require a
			// writable entry (CoW/read-only pages never cache as
			// writable, and mapping changes invalidate).
			if _, ok := s.at.lookup(as, vpn, write); ok {
				s.env.Recorder().At(obs.EvATCacheHit, int64(s.now()), "hit", int64(vpn), 0)
				ctx.Exec(cycles.ATCacheHit)
				if pinning {
					if err := as.Pin(pva, 1); err != nil {
						s.rollbackPins(as, start, pva)
						return err
					}
					npinned++
					ctx.Exec(pinCost(npinned))
				}
				continue
			}
		}
		if s.cfg.EnableATCache {
			s.env.Recorder().At(obs.EvATCacheMiss, int64(s.now()), "miss", int64(vpn), 0)
		}
		ctx.Exec(cycles.PageWalk)
		kind := as.Classify(pva, write)
		switch kind {
		case mem.FaultNone:
		case mem.FaultBadAddress, mem.FaultPermission:
			_, _, err := as.HandleFault(pva, write)
			if pinning {
				s.rollbackPins(as, start, pva)
			}
			return err
		default:
			// Construct exception parameters and invoke the fault
			// handler in Copier's context (§4.5.4).
			ctx.Exec(cycles.PageFault)
			kind, copied, err := as.HandleFault(pva, write)
			if err != nil {
				if pinning {
					s.rollbackPins(as, start, pva)
				}
				return err
			}
			if kind == mem.FaultDemandZero {
				ctx.Exec(cycles.PageAllocZero)
			}
			if copied > 0 {
				// CoW break inside proactive handling: the handler
				// copies with Copier's AVX engine.
				ctx.Exec(cycles.PageAllocZero + cycles.SyncCopyCost(cycles.UnitAVX, copied))
			}
			s.Stats.ProactiveFaults++
		}
		if pinning {
			if err := as.Pin(pva, 1); err != nil {
				s.rollbackPins(as, start, pva)
				return err
			}
			npinned++
			ctx.Exec(pinCost(npinned))
		}
		if s.cfg.EnableATCache {
			if f, _, err := as.Translate(pva); err == nil {
				pte := as.PTEOf(pva)
				s.at.InsertW(as, vpn, f, pte != nil && pte.Writable)
			}
		}
	}
	return nil
}

// pinCost prices the npinned-th pin of a walk: full cost for the
// first page, the batched get_user_pages rate after it.
//
//copier:noalloc
func pinCost(npinned int) sim.Time {
	if npinned == 1 {
		return cycles.PinPage
	}
	return cycles.PinPageBatch
}

// rollbackPins unpins the already-pinned prefix [start, upto) of a
// failed faultAndPin walk. A plain method rather than a closure so
// the hot walk allocates nothing.
//
//copier:noalloc
func (s *Service) rollbackPins(as *mem.AddrSpace, start, upto mem.VA) {
	for pva := start; pva < upto; pva += mem.PageSize {
		as.Unpin(pva, 1)
	}
}

func (s *Service) unpinAll(ctx Ctx, pins []pinRec) {
	for _, p := range pins {
		if p.as == s.kernelAS {
			continue
		}
		npages := units.Pages(int((p.va+mem.VA(p.n)-1)>>mem.PageShift) - int(p.va>>mem.PageShift) + 1)
		p.as.Unpin(p.va, p.n)
		ctx.Exec(cycles.PerPageAfterFirst(cycles.UnpinPage, cycles.UnpinPageBatch, npages))
	}
}

// dmaBatch carries one engine's share of a dispatch round from its
// doorbell to its last completion: the chunks and the descriptors the
// engine queued for them, side by side. The engine drains FIFO, so one
// live event (step) walks the batch in order. Batches are pooled with
// step bound once, so the steady-state dispatch path allocates nothing.
type dmaBatch struct {
	s      *Service
	eng    int
	chunks []chunk
	reqs   []hw.DMARequest
	// i is the next descriptor to complete.
	i    int
	step func()
}

// getDMABatch pops a pooled batch, or builds one with its step bound.
func (s *Service) getDMABatch() *dmaBatch {
	if n := len(s.dmaBatchPool); n > 0 {
		b := s.dmaBatchPool[n-1]
		s.dmaBatchPool[n-1] = nil
		s.dmaBatchPool = s.dmaBatchPool[:n-1]
		return b
	}
	b := &dmaBatch{s: s}
	b.step = b.completeNext
	return b
}

// completeNext runs at the next descriptor's CompleteAt: the engine
// moves its bytes, dmaDone finalizes its chunk, and the walk waits for
// the descriptor behind it, or recycles the batch after the last.
func (b *dmaBatch) completeNext() {
	s := b.s
	err := s.dmas[b.eng].Complete(&b.reqs[b.i])
	s.dmaDone(b.eng, b.chunks[b.i], err)
	b.i++
	if b.i < len(b.reqs) {
		s.env.Schedule(b.reqs[b.i].CompleteAt-s.now(), b.step)
		return
	}
	b.chunks, b.reqs, b.i = b.chunks[:0], b.reqs[:0], 0
	s.dmaBatchPool = append(s.dmaBatchPool, b)
}

// dispatch runs one piggyback round: DMA candidates from the latter
// part of the batch go to the DMA channel (they have the longest
// remaining Copy-Use windows), everything else runs on AVX in
// parallel; the round ends when both finish (§4.3, Fig. 7-c).
func (s *Service) dispatch(ctx Ctx, c *Client, all []chunk) {
	var total units.Bytes
	for _, ch := range all {
		total += ch.length
	}

	// dmaMark flags this round's DMA assignments, indexed like all.
	if cap(c.dmaMark) < len(all) {
		c.dmaMark = make([]bool, len(all))
	}
	dmaSet := c.dmaMark[:len(all)]
	for i := range dmaSet {
		dmaSet[i] = false
	}
	ndma := 0
	useDMA := s.cfg.EnableDMA && total >= piggybackThreshold
	if useDMA && s.now() < s.dmaAvoidUntil {
		// Graceful degradation: a recent DMA engine fault opened the
		// cooldown window, so DMA-eligible work runs on the CPU
		// engines until it passes.
		useDMA = false
		s.Stats.FallbackBytes += int64(total)
		s.env.Recorder().At(obs.EvEngineFallback, int64(s.now()), all[0].task.Client.Name, int64(all[0].task.ID), int64(total))
	}
	if useDMA {
		// Walk from the back, greedily moving DMA-eligible chunks to
		// the DMA engine while its estimated finish time stays below
		// the AVX time for the remainder.
		dmaBytes := units.Bytes(0)
		avxBytes := total
		for i := len(all) - 1; i >= 0; i-- {
			ch := all[i]
			if !ch.dmaEligible(dmaCandidateMin) {
				continue
			}
			ndmaBytes := dmaBytes + ch.length
			navx := avxBytes - ch.length
			dmaTime := cycles.CopyCost(cycles.UnitDMA, ndmaBytes)
			avxTime := cycles.CopyCost(cycles.UnitAVX, navx)
			if dmaTime > avxTime {
				break
			}
			dmaSet[i] = true
			ndma++
			dmaBytes = ndmaBytes
			avxBytes = navx
		}
	}

	// Submit the DMA chunks first (§4.3 parallel execution). The round
	// does NOT wait for DMA completion: segments are marked "issued"
	// now and complete asynchronously; the service keeps polling
	// while transfers are outstanding and finishes tasks as their
	// descriptors fill in.
	if ndma > 0 {
		s.dispatchDMASharded(ctx, c, all, dmaSet)
	}

	// Execute the CPU side inline, segment by segment, updating
	// descriptors as data lands so clients pipeline (§4.1).
	if s.cfg.UseERMSEngine {
		ctx.Exec(cycles.ERMSStartup)
	} else {
		ctx.Exec(cycles.AVXStartup)
	}
	cpuTrack := "hw:AVX"
	if s.cfg.UseERMSEngine {
		cpuTrack = "hw:ERMS"
	}
	for i, ch := range all {
		if dmaSet[i] {
			continue
		}
		// Progress in segment-aligned pieces so csync waiters wake as
		// early as their data is ready.
		off := units.Bytes(0)
		for off < ch.length {
			taskOff := ch.dstOff + off
			segEnd := (taskOff/ch.task.SegSize + 1) * ch.task.SegSize
			piece := segEnd - taskOff
			if piece > ch.length-off {
				piece = ch.length - off
			}
			if o := s.inj.At(fault.SiteCPU); o.Faulty() {
				if o.Stall > 0 {
					// Engine stall: the slice hiccups but still lands.
					ctx.Exec(sim.Time(o.Stall))
				}
				if o.Fail {
					// Transient CPU-engine failure: the attempt burns
					// its cycles but no bytes land; the segment stays
					// un-issued and the task backs off.
					s.Stats.CPUFaults++
					s.env.Recorder().On(cpuTrack, obs.EvFaultInjected, int64(s.now()), 0, "fault", int64(piece), 1)
					ctx.Exec(s.cpuCopyCost(ch, piece))
					s.noteFailure(ch.task, hw.ErrEngine)
					off += piece
					continue
				}
			}
			cost := s.cpuCopyCost(ch, piece) + cycles.SegmentUpdate
			s.env.Recorder().On(cpuTrack, obs.EvUnitBusyInterval, int64(s.now()), int64(cost), "copy", int64(piece), 0)
			ctx.Exec(cost)
			hw.CopyRange(s.pm, subRange(ch.dst, off, piece), subRange(ch.src, off, piece))
			s.Stats.AVXBytes += int64(piece)
			s.account(ch.task.Client, piece)
			s.env.Recorder().At(obs.EvSegmentDone, int64(s.now()), ch.task.Client.Name, int64(ch.task.ID), int64(piece))
			ch.task.issued.MarkRange(taskOff, piece)
			ch.task.Desc.MarkRange(taskOff, piece)
			ch.task.segDone += piece
			ch.task.Client.Progress.Broadcast(ctx.Env())
			ch.task.Desc.NotifyProgress(ctx.Env())
			off += piece
		}
	}

}

// dmaDone finalizes one DMA chunk completion: success marks segments
// and accounts bytes; an engine fault rolls the chunk back (segments
// un-issued for a later round), opens the cooldown window, and backs
// the task off.
//
//copier:noalloc
func (s *Service) dmaDone(eng int, ch chunk, err error) {
	s.epoch++
	s.inflightDMA--
	ch.task.inflight--
	perm := err == hw.ErrEngineDead
	s.noteEngineOutcome(eng, err != nil, perm, s.now())
	if err != nil {
		s.Stats.DMAFaults++
		s.Stats.DMABytes -= int64(ch.length)
		ch.task.issued.ClearRange(ch.dstOff, ch.length)
		if !perm {
			// A permanent death is the health machine's problem — the
			// engine is already out of rotation, and the global cooldown
			// would wrongly divert work from surviving engines too.
			s.dmaAvoidUntil = s.now() + s.cfg.DMACooldown
		}
		s.noteFailure(ch.task, err)
	} else {
		s.account(ch.task.Client, ch.length)
		ch.task.Desc.MarkRange(ch.dstOff, ch.length)
		ch.task.segDone += ch.length
		s.env.Recorder().At(obs.EvSegmentDone, int64(s.now()), ch.task.Client.Name, int64(ch.task.ID), int64(ch.length))
	}
	ch.task.Client.Progress.Broadcast(s.env)
	ch.task.Desc.NotifyProgress(s.env)
}

// dispatchDMASharded distributes a round's DMA chunks (the dmaSet
// entries of all) over the per-node engines (NUMA task steering); the
// flat machine is the one-node case. Each chunk prefers the engine
// local to its destination frames, but spills to a remote engine when
// that engine — despite the distance-scaled transfer cost — would
// finish sooner than waiting behind the local queue. Selection is
// deterministic: engines are scanned in index order and only a
// strictly earlier finish steals the chunk. Chunks are then submitted
// engine by engine in index order, one doorbell per engine: full
// submit cost for the first descriptor, a quarter for each further
// one (§4.3). Each engine drains FIFO, so one completion walker per
// batch marks segments as transfers land; a transfer the fault layer
// failed is rolled back by dmaDone instead.
func (s *Service) dispatchDMASharded(ctx Ctx, c *Client, all []chunk, dmaSet []bool) {
	now := s.now()
	// Availability snapshot for the round: quarantined engines admit at
	// most one half-open probe chunk, dead ones nothing. The scratch is
	// safe on the Service — the assignment loop never yields.
	avail, probe := s.availBuf, s.probeBuf
	for e := range s.dmas {
		avail[e], probe[e] = s.engineAvailable(e, now)
	}
	// pend accumulates this round's assignments so later chunks see
	// queue depth the engines will have after earlier ones land.
	pend := c.pendBuf[:0]
	for range s.dmas {
		pend = append(pend, 0)
	}
	c.pendBuf = pend
	// eng, indexed like all, assigns each DMA chunk its engine (-1 for
	// CPU chunks).
	eng := c.engBuf[:0]
	fellBack := units.Bytes(0)
	for i, ch := range all {
		if !dmaSet[i] {
			eng = append(eng, -1)
			continue
		}
		local := s.pm.NodeOf(ch.dst.Frame)
		best := -1
		var bestDone sim.Time
		if avail[local] {
			best, bestDone = local, s.engineEstimate(local, now, pend, ch)
		}
		if !s.brownout {
			// Brownout steers local-only: remote spills buy latency with
			// interconnect bandwidth the saturated fleet does not have.
			for e := range s.dmas {
				if e == local || !avail[e] {
					continue
				}
				if done := s.engineEstimate(e, now, pend, ch); best < 0 || done < bestDone {
					best, bestDone = e, done
				}
			}
		}
		if best < 0 {
			// No engine may take the chunk (local one quarantined or dead
			// and no available sibling): revert it to the CPU side.
			eng = append(eng, -1)
			dmaSet[i] = false
			fellBack += ch.length
			continue
		}
		eng = append(eng, best)
		pend[best] += s.dmas[best].XferCost(ch.dst, ch.src)
		if probe[best] {
			// One probe chunk per quarantined engine per round; close the
			// engine for further assignments until the outcome lands.
			s.markProbe(best)
			avail[best], probe[best] = false, false
		}
		if best != local {
			s.Stats.RemoteSpills++
			s.Stats.RemoteDMABytes += int64(ch.length)
		}
	}
	c.engBuf = eng
	if fellBack > 0 {
		s.Stats.FallbackBytes += int64(fellBack)
		s.env.Recorder().At(obs.EvEngineFallback, int64(now), all[0].task.Client.Name, int64(all[0].task.ID), int64(fellBack))
	}
	for e, dma := range s.dmas {
		var b *dmaBatch
		for i, ch := range all {
			if eng[i] == e {
				if b == nil {
					b = s.getDMABatch()
					b.eng = e
				}
				b.chunks = append(b.chunks, ch)
			}
		}
		if b == nil {
			continue
		}
		ctx.Exec(sim.Time(cycles.DMASubmit) + sim.Time(len(b.chunks)-1)*cycles.DMASubmit/4)
		for _, ch := range b.chunks {
			ch.task.issued.MarkRange(ch.dstOff, ch.length)
			ch.task.inflight++
			s.Stats.DMABytes += int64(ch.length)
			b.reqs = append(b.reqs, dma.Enqueue(ch.dst, ch.src))
		}
		s.inflightDMA += len(b.chunks)
		s.env.Schedule(b.reqs[0].CompleteAt-s.now(), b.step)
	}
}

// engineEstimate estimates when engine e would complete ch: its queue
// drain time (current busyUntil plus this round's pending assignments)
// plus the distance-scaled transfer cost. A degraded engine's retry
// risk is priced as one extra transfer cost, steering marginal chunks
// toward healthy siblings without abandoning the engine outright.
//
//copier:noalloc
func (s *Service) engineEstimate(e int, now sim.Time, pend []sim.Time, ch chunk) sim.Time {
	cost := s.dmas[e].XferCost(ch.dst, ch.src)
	done := max(s.dmas[e].BusyUntil(), now) + pend[e] + cost
	if s.health[e].state == EngineDegraded {
		done += cost
	}
	return done
}

// cpuCopyCost prices one CPU copy piece, distance-scaled by the span
// between the serving thread's node (== the client's node under
// per-node sharding) and the chunk's frames; on one node every span is
// local, which costs exactly the flat rate. A chunk's frames sit on
// its first frame's node — node ranges are contiguous, so a chunk
// straddling a boundary is priced by where it starts.
//
//copier:noalloc
func (s *Service) cpuCopyCost(ch chunk, piece units.Bytes) sim.Time {
	node := ch.task.Client.Node
	dist := s.cfg.Topo.PairDist(node, s.pm.NodeOf(ch.src.Frame), s.pm.NodeOf(ch.dst.Frame))
	return cycles.NUMACopyCost(s.cpuUnit(), piece, dist)
}

// subRange offsets a contiguous frame range by delta bytes and
// truncates it to n bytes.
//
//copier:noalloc
func subRange(fr hw.FrameRange, delta, n units.Bytes) hw.FrameRange {
	abs := fr.Off + delta
	return hw.FrameRange{
		Frame: fr.Frame + mem.Frame(abs/mem.PageSize),
		Off:   abs % mem.PageSize,
		Len:   n,
	}
}

// account charges n copied bytes to the client's CFS key (§4.5.3).
//
//copier:noalloc
func (s *Service) account(c *Client, n units.Bytes) {
	c.TotalCopied += int64(n)
	shares := int64(100)
	if c.Group != nil {
		shares = c.Group.Shares
	}
	delta := float64(n) / float64(shares)
	c.vruntime += delta
	if c.Group != nil {
		c.Group.vruntime += delta
	}
}

// finishTask finalizes a fully-copied task: handler delegation and
// accounting.
func (s *Service) finishTask(ctx Ctx, c *Client, t *Task) {
	if t.executed || t.aborted {
		return
	}
	if t.segDone < t.Len {
		panic(fmt.Sprintf("core: finishTask with %d/%d bytes done", t.segDone, t.Len))
	}
	// All completion state must change before the first yield
	// (ctx.Exec): a csync_all caller observing executed==true must
	// also find the FUNC already delegated.
	t.executed = true
	// The task no longer needs its issued tracker, and its pins are
	// released below: both go back to the service for later tasks.
	// Detaching them now means a handler that reuses and resubmits t
	// during the yields below starts from fresh state.
	if t.issued != nil && t.inflight == 0 {
		s.spareIssued = append(s.spareIssued, t.issued)
		t.issued = nil
	}
	pins := t.pins
	t.pins = nil
	s.env.Recorder().At(obs.EvTaskComplete, int64(s.now()), c.Name, int64(t.ID), int64(s.now()-t.enqueuedAt))
	c.backlogBytes -= int64(t.Len)
	s.backlogBytes -= int64(t.Len)
	s.Stats.TasksExecuted++
	var deferredCost sim.Time
	if h := t.Handler; h != nil {
		if h.Kernel {
			if h.Fn != nil {
				h.Fn()
			}
			deferredCost += cycles.HandlerDispatch + h.Cost
		} else {
			c.U.handlers = append(c.U.handlers, h)
		}
	}
	c.Progress.Broadcast(ctx.Env())
	ctx.Exec(deferredCost)
	s.unpinAll(ctx, pins)
	if pins != nil {
		s.sparePins = append(s.sparePins, pins[:0])
	}
}

// failTask drops a task that failed security checks or faulted
// unresolvably, recording the error on its descriptor so csync
// callers observe it (§4.5.4).
func (s *Service) failTask(ctx Ctx, c *Client, t *Task, err error) {
	t.executed = true
	t.err = err
	s.awaitInFlight(ctx, t)
	s.unpinAll(ctx, t.pins)
	t.pins = t.pins[:0]
	t.Desc.Err = err
	t.Desc.NotifyProgress(ctx.Env())
	c.backlogBytes -= int64(t.Len)
	s.backlogBytes -= int64(t.Len)
	s.Stats.FailedTasks++
	s.env.Recorder().At(obs.EvTaskFailed, int64(s.now()), c.Name, int64(t.ID), int64(t.retries))
	c.Progress.Broadcast(ctx.Env())
	c.removeExecuted()
}
