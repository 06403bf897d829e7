#!/bin/sh
# check.sh - the repo's pre-merge gate: formatting, vet (go vet plus
# the slpmtvet analyzer suite), build, full test suite, race-detector
# passes, and one traced 2-core run replayed through the persist-order
# sanitizer and the critical-path analyzer.
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
go run ./cmd/slpmtvet

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race . ./internal/bench/ ./internal/machine/ ./internal/trace/...
go test -race ./internal/experiments/ \
	./internal/recovery/ -run 'Parallel|ForEach|Grid|RunAll|Collector|Smoke'

echo "== traced run (streamed sanitizer + critical-path conservation) =="
go run ./cmd/slpmtbench -workload hashtable -cores 2 -n 300 -value 64 \
	-trace-stream stream-out -sanitize -critpath -hotlines 10

echo "ALL CHECKS PASSED"
