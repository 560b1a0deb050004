#!/bin/sh
# Tier-1 gate (ROADMAP.md): everything a PR must keep green.
# Usage: ./scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "files need gofmt:"
	echo "$fmt"
	exit 1
fi

# The trace-event schema lives in internal/obs: its kinds table holds
# each kind's name, layer and fixed timeline row, and emission sites
# call the nil-safe emitters Recorder.At and Recorder.On. A hand-built
# obs.Event literal elsewhere would restate that schema, so non-test
# code outside internal/obs may not write one (replaying recorded
# events through Emit(*ev) needs none).
echo "== obs schema =="
lits=$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.git \
	--exclude-dir=.bench_build 'obs\.Event{' . | grep -v '^\./internal/obs/' || true)
if [ -n "$lits" ]; then
	echo "obs.Event literals outside internal/obs (emit with Recorder.At or Recorder.On):"
	echo "$lits"
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

# copiervet (cmd/copiervet, internal/lint) machine-checks the project
# invariants: determinism hygiene in simulator-domain packages,
# //copier:noalloc escape-analysis contracts, cost-model hygiene,
# dimensional safety of units.Bytes/units.Pages/sim.Time,
# handle/task/pin lifecycle typestate (lifelint: no leaked,
# double-released, or used-after-release obligation on any path), and
# happens-before publication order of the lock-free structures
# (ordlint: every guarded write before its publish store, every
# cross-goroutine read behind a consume load, no raw sync/atomic call
# in any package, every atomic poll loop a documented //copier:spin
# site). It prints every finding plus a per-rule count summary and
# exits 1 on any unsuppressed finding (2 if the run itself fails).
# The patterns spell out every tree the gate owns — internal, the
# commands, and the examples — so a future default-pattern change
# cannot silently drop the demo code from the lifecycle gate; -v
# prints per-analyzer timing so a slow analyzer is visible in CI.
echo "== copiervet (six analyzers) =="
go run ./cmd/copiervet -v . ./cmd/... ./internal/... ./examples/...

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

# The benchmark (benchmark/, BENCHMARK.json) is its own module that
# drives the simulator and acopy through their public functions, so
# the root `./...` never builds it: vet and test it here so a core API
# change that breaks it fails the gate.
echo "== benchmark module =="
(cd benchmark && go vet . && go test .)

# The race build enables the //go:build race stress tests in
# internal/acopy, including the pooled-handle reuse hammer
# (TestStressPooledHandleReuse) that guards the zero-alloc
# AMemcpy -> Wait -> Release recycling path. internal/kernel rides
# along for the process-kill teardown tests (client death must not
# wedge service threads or leak pins); internal/bench for the fleet
# smoke (per-core shard rings + per-node engines under load);
# internal/sim for the job pool (RunJobs' merge and panic tests across
# worker threads). -short skips TestGoldens, so two goldens run again
# under -race: their 4-worker reruns put sim.RunJobs on worker threads
# over whole worlds, chaos over the copy service and fig12b over the
# kernel and proxy apps.
echo "== go test -race (concurrency-bearing packages) =="
go test -race ./internal/acopy ./internal/core ./internal/kernel ./internal/sim
go test -race -short ./internal/bench
go test -race -run 'TestGoldens/^(chaos|fig12b)$' ./internal/bench

# Fleet smoke: one small open-loop run per topology shape through the
# sharded service; fails on lost completions, disordered quantiles,
# or out-of-range utilization.
echo "== fleet smoke =="
go test -run 'TestFleetSmoke' ./internal/bench

# Chaos smoke: one seeded fault-injection run over the fig9-style
# workload; fails on leaked pins/ring slots, backlog drift, or
# corrupted survivor data.
echo "== chaos smoke =="
go test -run 'TestChaosInvariants' ./internal/bench

# Worst-day smoke: the chaosfleet run (permanent engine death inside
# a 6x overload window) plus its output golden; fails on lost accepted
# tasks, unbounded p99/backlog, leaked pins, a dead-engine recovery
# that never happened, or any changed byte in the recovery/shedding
# decisions.
echo "== chaosfleet smoke =="
go test -run 'TestChaosFleetInvariants|TestGoldens/^chaosfleet$' ./internal/bench

# Full-scale run: EXPERIMENTS.md's "Reproducing" -full command, every
# experiment but fig12b (whose 16-thread proxy point never completes,
# ROADMAP item 1), under a wall-clock limit about ten times its usual
# run time, so a panic, a hang or a quadratic blow-up in a full-scale
# path fails the gate. The tables go to /dev/null; the goldens pin
# Quick-scale output only.
echo "== full-scale run (all but fig12b) =="
timeout 120 go run ./cmd/copierbench -full \
	-run binder,chaos,chaosfleet,cow,cpi,fig10,fig11,fig12a,fig12c,fig13a,fig13b,fig13c,fig14,fig2a,fig2b,fig3,fig7a,fig9,fig9numa,fleet,isolation,scope,sendfile,tbl3,zlib \
	>/dev/null

echo "ALL CHECKS PASSED"
