# Developer entry points. `make check` is the pre-merge gate.

GO ?= go

.PHONY: all build test race check bench microbench fmt vet trace-gate \
	baseline compare report

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass: full tests over the root package (cluster), the
# bench harness, the caches (off-heap tag arrays released by a
# finalizer), the machine, and the tracer with its streaming binlog
# (double-buffered writer goroutine), plus the targeted subsets that
# exercise the parallel experiment runner and the workloads' shared
# free lists.
race:
	$(GO) test -race . ./internal/bench/ ./internal/cache/ ./internal/machine/ ./internal/trace/...
	$(GO) test -race ./internal/experiments/ \
		./internal/recovery/ -run 'Parallel|ForEach|Grid|RunAll|Collector|Smoke'
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

# Benchmark artifact: the core-scaling sweep with interval metrics
# (BENCH_scaling.json). Sized to finish in CI minutes; raise -n locally
# for paper-scale numbers. The traced sample run is make trace-gate's.
bench:
	$(GO) run ./cmd/slpmtbench -experiment scaling -n 300 -value 64 -json

# Micro-benchmarks for the simulator hot paths (allocations reported),
# layer by layer: cache lookup/insert/locate, the core's eviction
# cascade and commit walk, PM persist, async backlog and crash snapshot, log-buffer
# insert/merge, heap alloc/free churn inside transactions, the engine,
# the tracer's disabled/enabled emit costs, a serial crash campaign,
# workload point reads and short scans, one small durable transaction
# through the public API, and building a platform (NewCluster at 1
# core, 4 cores and 4 cores on 2 sockets).
microbench:
	$(GO) test -run xxx -bench . -benchmem ./internal/cache/ ./internal/machine/ \
		./internal/pmem/ ./internal/logbuf/ ./internal/txheap/ ./internal/engine/ \
		./internal/ycsb/ ./internal/trace/ ./internal/recovery/ ./internal/workloads/
	$(GO) test -run xxx -bench '^(BenchmarkUpdate|BenchmarkNewCluster)$$' -benchmem .

# Experiments gated by the perf-regression baseline (default flag
# parameters: n=1000, value=256, seed=0 — what `-compare baselines/`
# reproduces). fig13 and mixes are not gated yet: fig13 records no
# results, and -compare fails on a baseline or run that holds none.
BASELINE_EXPERIMENTS := headline scaling fig8 window numa fig9 fig10 fig11 \
	fig12 fig14 ablation model breakdown critpath

# Regenerate the committed perf-regression baselines. Run after an
# intentional model change (and eyeball the diff before committing).
baseline:
	@mkdir -p baselines
	@for e in $(BASELINE_EXPERIMENTS); do \
		$(GO) run ./cmd/slpmtbench -experiment $$e -json || exit 1; \
		mv BENCH_$$e.json baselines/BENCH_$$e.json; \
	done
	@echo "refreshed baselines/: $(BASELINE_EXPERIMENTS)"

# Perf-regression gate: rerun the gated experiments and diff every
# metric (cycles, traffic, percentiles, cycles_by_cause) against the
# committed baselines with per-metric tolerances. Nonzero exit on
# drift.
compare:
	@for e in $(BASELINE_EXPERIMENTS); do \
		$(GO) run ./cmd/slpmtbench -experiment $$e -json -compare baselines/ || exit 1; \
	done

# Self-contained HTML run report rendered from the committed baselines
# (swap in fresh BENCH_*.json files to report on a local run).
report:
	$(GO) run ./cmd/slpmtreport -o report.html baselines/BENCH_headline.json \
		baselines/BENCH_scaling.json baselines/BENCH_fig8.json \
		baselines/BENCH_window.json baselines/BENCH_numa.json
