# Convenience targets; scripts/check.sh is the source of truth for
# the tier-1 gate.

.PHONY: check lint test bench fuzz chaos linedelta

check:
	./scripts/check.sh

# Per-package added/removed lines of the working tree against BASE
# (default HEAD: the uncommitted change), non-test code and tests
# counted separately. After committing: make linedelta BASE=HEAD~1.
BASE ?= HEAD
linedelta:
	./scripts/linedelta.sh $(BASE)

# Project-invariant static analysis (see internal/lint): six
# analyzers over one shared package load — determinism hygiene
# (detlint), //copier:noalloc contracts (alloclint), cost-model
# hygiene (cyclelint), dimensional safety of units.Bytes/units.Pages/
# sim.Time (unitlint), handle/task/pin lifecycle typestate
# (lifelint), and happens-before publication order per
# //copier:ordered contracts, with no raw sync/atomic call anywhere
# (ordlint). The analyzer registry in internal/lint/run.go is the
# authoritative list. Add -v for per-analyzer timing.
lint:
	go run ./cmd/copiervet . ./cmd/... ./internal/... ./examples/...

test:
	go test ./...

# Refresh the checked-in hot-path microbenchmark results
# (BENCH_results.json), then run the root package's benchmarks
# (bench_test.go: one per paper table/figure, the native acopy benches
# and a few hot-path ones) without its tests. The internal packages'
# own benchmarks run with `go test -run '^$' -bench=. ./internal/<pkg>`.
bench:
	go run ./cmd/copierbench -benchjson BENCH_results.json
	go test -run '^$$' -bench=. -benchmem .

# Short continuation runs over the checked-in seed corpora.
fuzz:
	go test ./internal/sim -run=^$$ -fuzz=FuzzSpinMatchesWait -fuzztime=30s
	go test ./internal/mem -run=^$$ -fuzz=FuzzAllocMatchesReference -fuzztime=30s
	go test ./internal/core -run=^$$ -fuzz=FuzzRing -fuzztime=30s
	go test ./internal/core -run=^$$ -fuzz=FuzzFaultSchedule -fuzztime=30s
	go test ./internal/core -run=^$$ -fuzz=FuzzHealthTransitions -fuzztime=30s
	go test ./internal/copiergen -run=^$$ -fuzz=FuzzPortSemantics -fuzztime=30s
	go test ./internal/copiergen -run=^$$ -fuzz=FuzzPortIdempotent -fuzztime=30s
	go test ./internal/lint -run=^$$ -fuzz=FuzzSuppress -fuzztime=30s
	go test ./internal/lint -run=^$$ -fuzz=FuzzOrdSpec -fuzztime=30s
	go test ./internal/bench -run=^$$ -fuzz=FuzzArrivalSchedule -fuzztime=30s

# Full chaos sweep: seeded fault injection + client death over the
# copy service, plus the chaos and chaosfleet output goldens.
chaos:
	go run ./cmd/copierbench -run chaos -full
	go test -run 'TestChaos|TestGoldens/^chaos' -v ./internal/bench
