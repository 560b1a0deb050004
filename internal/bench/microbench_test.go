package bench

import "testing"

// The core poll-loop rows of BENCH_results.json, as package
// benchmarks: `go test -run '^$' -bench 'IdleSweep|ServeBesideIdle'
// ./internal/bench`.

func BenchmarkIdleSweep(b *testing.B) {
	b.Run("1node", idleSweeps(1))
	b.Run("4node", idleSweeps(4))
}

func BenchmarkServeBesideIdle(b *testing.B) { serveBesideIdle(b) }
