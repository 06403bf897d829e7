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
# bench harness, the machine, and the tracer with its streaming binlog
# (double-buffered writer goroutine), plus the targeted subset that
# exercises the parallel experiment runner.
race:
	$(GO) test -race . ./internal/bench/ ./internal/machine/ ./internal/trace/...
	$(GO) test -race ./internal/experiments/ \
		./internal/recovery/ -run 'Parallel|ForEach|Grid|RunAll|Collector|Smoke'

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis: go vet plus the repo's own analyzer suite
# (determinism, noalloc + compiler escape cross-check, trace coverage;
# see internal/analyze and cmd/slpmtvet).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/slpmtvet -time

# Traced-run gate: one 2-core hashtable run streams its trace into an
# SLPSEG01 binlog (stream-out/, with NDJSON telemetry), and the binlog
# replays through the persist-order sanitizer (internal/trace/sanitize.go:
# log-before-data, commit-marker order, WPQ FIFO, lazy-drain
# obligations; zero violations and zero dropped events required) and
# the causal critical-path analyzer, whose conservation contract (path
# length == makespan) is enforced inside the harness. The
# blame/slack/hot-line report lands in stream-out/critpath.txt.
trace-gate:
	$(GO) run ./cmd/slpmtbench -workload hashtable -cores 2 -n 300 -value 64 \
		-trace-stream stream-out -sanitize -critpath -hotlines 10

# Full gate: formatting, vet, build, tests, race subset.
check:
	./scripts/check.sh

# Benchmark artifacts: the core-scaling sweep with interval metrics
# (BENCH_scaling.json) plus one traced 2-core sample run whose Perfetto
# export (sample-trace.json) opens in ui.perfetto.dev. Sized to finish
# in CI minutes; raise -n locally for paper-scale numbers.
bench:
	$(GO) run ./cmd/slpmtbench -experiment scaling -n 300 -value 64 -json
	$(GO) run ./cmd/slpmtbench -workload hashtable -cores 2 -n 300 -value 64 \
		-trace sample-trace.json

# Micro-benchmarks for the simulator hot paths (allocations reported),
# layer by layer: cache lookup/insert/locate, the core's eviction
# cascade, log-buffer insert/merge, the engine, and the tracer's
# disabled/enabled emit costs.
microbench:
	$(GO) test -run xxx -bench . -benchmem ./internal/cache/ ./internal/machine/ \
		./internal/logbuf/ ./internal/engine/ ./internal/ycsb/ ./internal/trace/

# Experiments gated by the perf-regression baseline (default flag
# parameters: n=1000, value=256, seed=0 — what `-compare baselines/`
# reproduces).
BASELINE_EXPERIMENTS := headline scaling fig8 window numa

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
