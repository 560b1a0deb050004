package core

import (
	"errors"
	"math/bits"

	"copier/internal/obs"
	"copier/internal/sim"
)

// ErrOverload is recorded on tasks rejected by admission control: the
// client's pending queue is at its bound (Config.MaxPending), or the
// brownout controller is shedding the client's priority class. The
// copy never ran; the submitter owns its buffers and may resubmit.
var ErrOverload = errors.New("core: task rejected, admission queue over bound")

// ErrDeadline is recorded on tasks shed because their SLO deadline
// (Task.Deadline) passed before the dispatcher reached them — copying
// already-dead work would only delay live work behind it.
var ErrDeadline = errors.New("core: task shed, SLO deadline passed before dispatch")

// EngineState is one DMA engine's position in the health state
// machine: Healthy → Degraded → Quarantined → Dead, driven by the
// sliding-window failure rate of its completions. Degraded engines are
// deprioritized by steering; Quarantined engines receive no work until
// a half-open probe readmits them; Dead is absorbing (permanent engine
// failure).
type EngineState uint8

const (
	EngineHealthy EngineState = iota
	EngineDegraded
	EngineQuarantined
	EngineDead

	numEngineStates
)

var engineStateNames = [numEngineStates]string{"healthy", "degraded", "quarantined", "dead"}

func (s EngineState) String() string {
	if int(s) < len(engineStateNames) {
		return engineStateNames[s]
	}
	return "state?"
}

// Health state machine thresholds, over the sliding completion window.
const (
	// healthWindow is how many recent completions the failure-rate
	// tracker remembers per engine (a bit ring in one word).
	healthWindow = 32
	// healthMinSamples gates any transition: fewer observations than
	// this cannot degrade an engine.
	healthMinSamples = 8
	// degradeFails: window failures at/above this mark the engine
	// Degraded (≥25% of a full window).
	degradeFails = 8
	// recoverFails: a Degraded engine returns to Healthy only when the
	// window failure count drops to/below this (hysteresis: half the
	// degrade threshold, so the state cannot flap on one completion).
	recoverFails = degradeFails / 2
	// quarantineFails: window failures at/above this quarantine the
	// engine (≥50% of a full window).
	quarantineFails = 16
)

// engineHealth is one engine's tracker. All state is owned by the
// service and mutated only from simulation context, so replays are
// deterministic.
type engineHealth struct {
	state EngineState
	// window is the bit ring of the last healthWindow completion
	// outcomes (1 = failure), newest in bit 0; wn counts how many bits
	// are populated.
	window uint64
	wn     int
	// quarantinedAt stamps the most recent entry into Quarantined (or
	// a failed probe re-arming it); a probe is allowed after
	// Config.QuarantineProbe elapses.
	quarantinedAt sim.Time
	// probeInflight marks that a half-open probe has been dispatched
	// and its outcome is still pending; no further work is steered to
	// the engine until the probe completes.
	probeInflight bool
}

// emitHealth records a state transition on the observability bus.
//
//copier:noalloc
func (s *Service) emitHealth(e int, st EngineState) {
	s.env.Recorder().At(obs.EvEngineHealth, int64(s.now()), engineStateNames[st], int64(e), int64(st))
}

// noteEngineOutcome feeds one DMA completion outcome from engine e
// into its health tracker and advances the state machine. perm marks a
// permanent engine failure (hw.ErrEngineDead): the engine goes Dead
// immediately and stays there. While Quarantined, any completion from
// the engine — the probe, or straggling pre-quarantine work — is
// treated as probe feedback: a success readmits the engine, a failure
// re-arms the quarantine clock. This conflation is deliberate: it is
// deterministic, and a straggler's outcome is exactly as informative
// about the engine as a dedicated probe's.
//
//copier:noalloc
func (s *Service) noteEngineOutcome(e int, failed, perm bool, now sim.Time) {
	h := &s.health[e]
	if h.state == EngineDead {
		return
	}
	if perm {
		h.state = EngineDead
		h.probeInflight = false
		s.Stats.EngineDeaths++
		s.emitHealth(e, EngineDead)
		return
	}
	if h.state == EngineQuarantined {
		if failed {
			h.quarantinedAt = now
			h.probeInflight = false
			return
		}
		s.Stats.ProbeRecoveries++
		h.state = EngineHealthy
		h.window, h.wn = 0, 0
		h.probeInflight = false
		s.emitHealth(e, EngineHealthy)
		return
	}
	bit := uint64(0)
	if failed {
		bit = 1
	}
	h.window = (h.window<<1 | bit) & (1<<healthWindow - 1)
	if h.wn < healthWindow {
		h.wn++
	}
	if h.wn < healthMinSamples {
		return
	}
	fails := bits.OnesCount64(h.window)
	switch {
	case fails >= quarantineFails:
		h.state = EngineQuarantined
		h.quarantinedAt = now
		h.probeInflight = false
		h.window, h.wn = 0, 0
		s.Stats.Quarantines++
		s.emitHealth(e, EngineQuarantined)
	case fails >= degradeFails:
		if h.state != EngineDegraded {
			h.state = EngineDegraded
			s.Stats.Degradations++
			s.emitHealth(e, EngineDegraded)
		}
	case fails <= recoverFails:
		if h.state != EngineHealthy {
			h.state = EngineHealthy
			s.emitHealth(e, EngineHealthy)
		}
	}
}

// engineAvailable reports whether engine e may be steered new chunks
// now, and whether accepting one would be the half-open probe of a
// quarantined engine (the caller must then markProbe before
// submitting).
//
//copier:noalloc
func (s *Service) engineAvailable(e int, now sim.Time) (ok, probe bool) {
	h := &s.health[e]
	switch h.state {
	case EngineDead:
		return false, false
	case EngineQuarantined:
		if h.probeInflight || now < h.quarantinedAt+s.cfg.QuarantineProbe {
			return false, false
		}
		return true, true
	}
	return true, false
}

// markProbe records that a half-open probe was dispatched to
// quarantined engine e; the engine accepts nothing further until the
// probe's outcome arrives at noteEngineOutcome.
//
//copier:noalloc
func (s *Service) markProbe(e int) { s.health[e].probeInflight = true }

// EngineHealth reports engine e's current health state.
func (s *Service) EngineHealth(e int) EngineState { return s.health[e].state }

// Shed reason codes (EvTaskShed.B).
const (
	shedOverload    = 1
	shedDeadline    = 2
	shedBrownout    = 3
	shedRetryBudget = 4
)

// takeRetryToken draws one token from the global retry budget,
// refilling it from elapsed virtual time first. The budget bounds how
// fast transient failures can re-enter the dispatch queue: under
// overload a retry storm would otherwise amplify exactly the pressure
// that caused the failures.
//
//copier:noalloc
func (s *Service) takeRetryToken(now sim.Time) bool {
	if s.retryTokens >= retryBudget {
		// Full bucket: idle time earns no credit beyond the cap.
		s.retryRefillAt = now
	} else if now > s.retryRefillAt {
		refilled := int((now - s.retryRefillAt) / retryRefill)
		if refilled > 0 {
			s.retryTokens = min(s.retryTokens+refilled, retryBudget)
			s.retryRefillAt += sim.Time(refilled) * retryRefill
		}
	}
	if s.retryTokens <= 0 {
		return false
	}
	s.retryTokens--
	return true
}

// brownoutEval advances the brownout controller against the service
// backlog. Entry: backlog above BrownoutHigh for a full brownoutDwell.
// Exit: backlog below BrownoutHigh/8 for a full brownoutDwell. The dwell
// on both edges is the hysteresis that keeps one bursty arrival from
// toggling the mode per sweep. Driven from each sweep's admission, so
// it advances in deterministic virtual time.
//
//copier:noalloc
func (s *Service) brownoutEval(now sim.Time) {
	if s.cfg.BrownoutHigh <= 0 {
		return
	}
	if !s.brownout {
		if s.backlogBytes > s.cfg.BrownoutHigh {
			if s.pressureSince == 0 {
				s.pressureSince = now
			}
			if now-s.pressureSince >= brownoutDwell {
				s.brownout = true
				s.pressureSince = 0
				s.Stats.BrownoutEntries++
				s.env.Recorder().At(obs.EvBrownout, int64(now), "enter", 1, s.backlogBytes)
			}
		} else {
			s.pressureSince = 0
		}
		return
	}
	if s.backlogBytes < s.cfg.BrownoutHigh/8 {
		if s.calmSince == 0 {
			s.calmSince = now
		}
		if now-s.calmSince >= brownoutDwell {
			s.brownout = false
			s.calmSince = 0
			s.env.Recorder().At(obs.EvBrownout, int64(now), "exit", 0, s.backlogBytes)
		}
	} else {
		s.calmSince = 0
	}
}

// brownoutResting reports whether brownoutEval changes nothing, at
// any instant, while the backlog and the controller stay as they are:
// no controller, or one resting on its current side with no edge
// pending.
func (s *Service) brownoutResting() bool {
	switch {
	case s.cfg.BrownoutHigh <= 0:
		return true
	case !s.brownout:
		return s.pressureSince == 0 && s.backlogBytes <= s.cfg.BrownoutHigh
	default:
		return s.calmSince == 0 && s.backlogBytes >= s.cfg.BrownoutHigh/8
	}
}

// rejectAdmission applies admission control at the moment a copy task
// would move from its CSH ring into the merged pending list. Rejection
// is deterministic and definite: the task completes immediately with
// ErrOverload on its descriptor, no bytes move, and no handler runs
// (mirroring failTask — the copy never happened). Two gates, checked
// in order: the per-client pending-depth bound, and the brownout
// controller's lowest-priority-first shed.
func (s *Service) rejectAdmission(c *Client, t *Task) bool {
	var reason int64
	switch {
	case s.cfg.MaxPending > 0 && len(c.pending) >= s.cfg.MaxPending:
		reason = shedOverload
		s.Stats.OverloadShed++
	case s.brownout && s.cfg.BrownoutShedBelow > 0 &&
		c.Group != nil && c.Group.Shares < s.cfg.BrownoutShedBelow:
		reason = shedBrownout
		s.Stats.BrownoutShed++
	default:
		return false
	}
	t.executed = true
	t.err = ErrOverload
	t.Desc.Err = ErrOverload
	t.Desc.NotifyProgress(s.env)
	s.env.Recorder().At(obs.EvTaskShed, int64(s.now()), c.Name, int64(t.ID), reason)
	c.Progress.Broadcast(s.env)
	return true
}

// shedLate finalizes a task dropped by deadline-aware shedding: the
// EvTaskShed record plus the ordinary definite-failure path
// (ErrDeadline on the descriptor, waiters woken, pins released).
func (s *Service) shedLate(ctx Ctx, c *Client, t *Task) {
	s.Stats.DeadlineShed++
	s.env.Recorder().At(obs.EvTaskShed, int64(s.now()), c.Name, int64(t.ID), shedDeadline)
	s.failTask(ctx, c, t, ErrDeadline)
}
