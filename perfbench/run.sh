#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# trace files all stay under .bench_build/, and the build never reaches
# the network (the module has no dependencies outside the repository).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off \
	GOTOOLCHAIN=local GOWORK=off GOENV=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
