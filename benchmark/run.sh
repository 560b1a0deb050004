#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs
# it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload fleet-numa --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the toolchain's config and telemetry files,
# temporary files and the binary all stay under .bench_build/ at the
# checkout root, and the toolchain is told never to download anything.
# Without the repository's sources next to benchmark/ the build fails
# and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -buildvcs=false -o "$out/copierbench-bin" .)
exec "$out/copierbench-bin" "$@"
