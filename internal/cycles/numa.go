// NUMA extension of the cost model: distance-scaled copy costs.
//
// The flat model in cycles.go describes one socket. On a multi-socket
// machine the same copy engine sees different bandwidth and latency
// depending on where the source and destination frames live. We follow
// the calibration recipe of "Emulating Hybrid Memory on NUMA Hardware"
// (PAPERS.md): a one-hop remote access runs at roughly half the local
// bandwidth and adds on the order of 90 ns of latency. Distances use
// the ACPI SLIT convention — local = 10, one-hop remote typically 21 —
// so scaling cycle costs by dist/10 reproduces the ~2.1x cycle
// (~0.48x bandwidth) remote penalty directly from the distance matrix.
package cycles

import (
	"copier/internal/sim"
	"copier/internal/units"
)

const (
	// DistLocal is the SLIT distance of a node to itself. Costs at
	// DistLocal are by construction identical to the flat model.
	DistLocal = 10

	// DistRemote is the default SLIT distance of a one-hop remote
	// node (the common value reported by real 2-4 socket machines).
	DistRemote = 21

	// numaHopCycles is the fixed extra latency of one full remote hop
	// at DistRemote: ~90 ns = 261 cycles at 2.9 GHz. Intermediate
	// distances interpolate linearly.
	numaHopCycles = 261
)

// NUMACopyCost returns the engine-busy cost of copying n bytes when
// the transfer spans SLIT distance dist: the flat CopyCost scaled by
// dist/DistLocal. At dist == DistLocal this is exactly CopyCost — a
// single-node topology reproduces the flat model cycle for cycle.
func NUMACopyCost(u Unit, n units.Bytes, dist int) sim.Time {
	base := CopyCost(u, n)
	if dist <= DistLocal {
		return base
	}
	return base * sim.Time(dist) / DistLocal
}

// NUMAXferLatency returns the fixed per-transfer latency added by a
// remote hop at SLIT distance dist (zero at DistLocal, numaHopCycles
// at DistRemote, linear in between and beyond).
func NUMAXferLatency(dist int) sim.Time {
	if dist <= DistLocal {
		return 0
	}
	return sim.Time(dist-DistLocal) * numaHopCycles / (DistRemote - DistLocal)
}
