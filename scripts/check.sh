#!/bin/sh
# check.sh - the repo's pre-merge gate: formatting, vet (go vet plus
# the slpmtvet analyzer suite), build (native, windows and darwin), full
# test suite, vet and tests of the perfbench module, one run of each
# cache/machine/engine/pmem/logbuf/txheap/recovery/workloads/critpath
# microbenchmark and of the cluster constructor benchmark,
# race-detector passes, and one traced 2-core run streamed through the
# persist-order sanitizer (its printed report must read 0 violations)
# and the critical-path analyzer, exported to
# Perfetto and profiled into folded stacks, whose saved binlog
# slpmtbench -replay then reads back to the live run's summary,
# sanitizer and critical-path sections and Perfetto export byte for
# byte.
#
# Usage: scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== slpmtvet (determinism / noalloc / trace coverage) =="
go run ./cmd/slpmtvet -time

echo "== go build =="
go build ./...

echo "== cross-build (images and tag arrays: heap-backed on windows, mapped on darwin) =="
GOOS=windows GOARCH=amd64 go build ./...
GOOS=darwin GOARCH=arm64 go build ./...

echo "== go test =="
go test ./...

echo "== perfbench (own module: a main-module API change that breaks it fails here) =="
(cd perfbench && go vet ./... && go test ./...)

echo "== benchmark smoke (each microbenchmark once) =="
go test -run '^$' -bench . -benchtime 1x ./internal/cache/ ./internal/machine/ ./internal/engine/ \
	./internal/pmem/ ./internal/logbuf/ ./internal/txheap/ ./internal/recovery/ ./internal/workloads/ \
	./internal/critpath/
go test -run '^$' -bench '^BenchmarkNewCluster$' -benchtime 1x .

echo "== go test -race (make race) =="
make race

echo "== traced run: streamed sanitizer, critical-path conservation, Perfetto, folded stacks and the -replay diffs (make trace-gate) =="
make trace-gate

echo "ALL CHECKS PASSED"
