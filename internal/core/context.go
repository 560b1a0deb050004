package core

import "copier/internal/sim"

// Ctx is the execution context a piece of simulated code charges CPU
// time through. kernel.Thread implements it; tests use lightweight
// adapters. Keeping the service independent of the kernel package
// mirrors the paper's layering (the service is beneath the OS
// services that call it) and avoids an import cycle.
//
// A Ctx that books CPU time may also have a Charge(d sim.Time) method
// (kernel.Thread does). For a service thread, Exec(d) must equal
// waiting d cycles on its process, then Charge(d) if the Ctx has one:
// the poll loop waits in event context (sim.Env.Spin) and charges each
// wait through Charge once it ends.
type Ctx interface {
	// Exec consumes d cycles of CPU time (preemptible).
	Exec(d sim.Time)
	// Block releases the CPU until s broadcasts.
	Block(s *sim.Signal)
	// BlockTimeout releases the CPU until s broadcasts or d elapses;
	// reports whether the signal fired.
	BlockTimeout(s *sim.Signal, d sim.Time) bool
	// SpinUntil busy-polls (keeps the CPU, burning cycles) until s
	// broadcasts.
	SpinUntil(s *sim.Signal)
	// Now returns virtual time.
	Now() sim.Time
	// Env returns the simulation environment.
	Env() *sim.Env
}
