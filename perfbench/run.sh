#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload load-1c --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/home"

export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOPATH="${out}/gopath"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
