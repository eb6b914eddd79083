#!/usr/bin/env bash
# Builds the extscc benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload contract-web --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files, the binary, scratch inputs and the result
# files all live under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/config" "$out/tmp"

# The go command's caches, its configuration and telemetry directory, and
# temporary files all go to the build directory.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
# The benchmark measures the shipped defaults, so ambient overrides of the
# library defaults must not leak into it.
unset EXTSCC_STORAGE EXTSCC_CODEC EXTSCC_CACHE EXTSCC_FAULT

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
