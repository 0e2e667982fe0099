#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-run --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" \
	GOPATH="$build/home/go" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --expected "$root/perfbench/expected.json" "$@"
