# Developer entry points. `make check` is the pre-merge gate.

GO ?= go

.PHONY: all build test race check microbench fmt vet trace-gate \
	baseline compare report

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass: full tests over the root package (cluster), the
# bench harness, the caches (off-heap tag arrays released by a
# finalizer), the machine, the PM device (crash views and memory views
# alias a mapping a finalizer releases), and the tracer with its
# streaming binlog (double-buffered writer goroutine), plus the
# targeted subsets that exercise the parallel experiment runner and
# crash sweep (each worker recovers on its own platform's durable
# image; serial and parallel sweeps agree, failing campaigns included),
# and the process-wide free lists those workers share: the
# freelist package itself, the PM devices' grown WPQ backlogs (under
# ./internal/pmem/), the engine's grown write sets, epoch line sets and
# lazy lists, the heap handles' grown extent logs and the workloads'
# scratch buffers.
race:
	$(GO) test -race . ./internal/bench/ ./internal/cache/ ./internal/machine/ ./internal/pmem/ ./internal/trace/... \
		./internal/freelist/
	$(GO) test -race ./internal/experiments/ \
		./internal/recovery/... -run 'Parallel|ForEach|Grid|RunAll|Smoke'
	$(GO) test -race ./internal/engine/ ./internal/txheap/ -run 'Reuse'
	$(GO) test -race ./internal/workloads/ -run 'FreeList|KeySet'

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis: go vet plus the repo's own analyzer suite
# (determinism, noalloc + compiler escape cross-check, trace coverage;
# see internal/analyze and cmd/slpmtvet).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/slpmtvet -time

# Traced-run gate: the one 2-core hashtable run CI traces. It streams
# its trace into an SLPSEG01 binlog (stream-out/, with NDJSON
# telemetry), and every analysis reads that binlog: the persist-order
# sanitizer (internal/trace/sanitize.go: log-before-data, commit-marker
# order, WPQ FIFO, lazy-drain obligations; zero violations and zero
# dropped events required), the causal critical-path analyzer, whose
# conservation contract (path length == makespan) is enforced inside
# the harness, and the Perfetto export (stream-out/sample-trace.json,
# opens in ui.perfetto.dev). The same run's cycle attribution lands as
# folded stacks in stream-out/hashtable-2c.folded, the blame/slack/
# hot-line report in stream-out/critpath.txt and its printed output in
# stream-out/run.txt. Then `slpmtbench -replay` reads the saved binlog
# without rerunning (stream-out/replay.txt): its latency summary, WPQ
# series, sanitizer section and critical path must reproduce the live
# run's byte for byte, its critical path must be critpath.txt, and its
# Perfetto export (stream-out/replay-trace.json) must be
# sample-trace.json byte for byte.
trace-gate:
	@mkdir -p stream-out
	$(GO) run ./cmd/slpmtbench -workload hashtable -cores 2 -n 300 -value 64 \
		-trace-stream stream-out -sanitize -critpath -hotlines 10 \
		-trace stream-out/sample-trace.json -flame stream-out/hashtable-2c.folded \
		>stream-out/run.txt || { cat stream-out/run.txt; exit 1; }
	@cat stream-out/run.txt
	$(GO) run ./cmd/slpmtbench -replay stream-out -sanitize -critpath -hotlines 10 \
		-trace stream-out/replay-trace.json >stream-out/replay.txt
	sed -n '/^events: /,$$p' stream-out/run.txt | grep -v '^wrote ' >stream-out/run-sections.txt
	sed -n '/^events: /,$$p' stream-out/replay.txt | grep -v '^wrote ' | diff stream-out/run-sections.txt -
	sed -n '/^critical path: /,$$p' stream-out/replay.txt | diff - stream-out/critpath.txt
	cmp stream-out/replay-trace.json stream-out/sample-trace.json

# Full gate: formatting, vet, build, tests, race subset.
check:
	./scripts/check.sh

# Micro-benchmarks for the simulator hot paths (allocations reported),
# layer by layer: cache lookup/insert/locate, the core's eviction
# cascade and commit walk, PM persist, async backlog and crash snapshot, log-buffer
# insert/merge, heap alloc/free churn inside transactions, the engine,
# the tracer's disabled/enabled emit costs, a serial crash campaign,
# workload point reads and short scans, the critical-path analysis of a
# recorded 2-core stream, one small durable transaction through the
# public API, and building a platform (NewCluster at 1 core, 4 cores
# and 4 cores on 2 sockets).
microbench:
	$(GO) test -run xxx -bench . -benchmem ./internal/cache/ ./internal/machine/ \
		./internal/pmem/ ./internal/logbuf/ ./internal/txheap/ ./internal/engine/ \
		./internal/ycsb/ ./internal/trace/ ./internal/recovery/ ./internal/workloads/ \
		./internal/critpath/
	$(GO) test -run xxx -bench '^(BenchmarkUpdate|BenchmarkNewCluster)$$' -benchmem .

# Regenerate the committed perf-regression baselines: one
# BENCH_<experiment>.json per experiment of the registry, at the default
# flags (n=1000, value=256, seed=0) that `-compare baselines/`
# reproduces. Run after an intentional model change (and eyeball the
# diff before committing).
baseline:
	$(GO) run ./cmd/slpmtbench -experiment all -json
	@mkdir -p baselines
	mv BENCH_*.json baselines/

# Perf-regression gate: rerun every experiment in one process and check
# every value of every result against the committed baselines, exactly
# (the simulator is deterministic). Fresh BENCH_*.json files land in the
# working directory; nonzero exit if any value differs, after reporting
# every experiment. Accept an intended change with `make baseline` and a
# CHANGES.md line per moved cell.
compare:
	$(GO) run ./cmd/slpmtbench -experiment all -compare baselines/

# Self-contained HTML run report rendered from the committed baselines
# (swap in fresh BENCH_*.json files to report on a local run).
report:
	$(GO) run ./cmd/slpmtreport -o report.html baselines/BENCH_*.json
