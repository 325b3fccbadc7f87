#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, temporary files, reports) goes under the build
# directory ($CARGO_TARGET_DIR when set, .bench_build otherwise), so a
# checkout is self-contained.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --outdir "$out" "$@"
