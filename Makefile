# Vidi (Go reproduction) — convenience targets.

GO ?= go

.PHONY: all build vet lint waivers vuln staticcheck fmt-check test test-short test-race race-golden fuzz-smoke fuzz-guided-smoke fuzz-native telemetry-smoke serve-chaos-smoke serve-chaos serve-load-smoke bench-smoke bench-test ci bench tables examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (sensaudit + handshake + detaudit).
# Runs standalone with -tests (so _test.go packages are audited too) and
# through go vet's -vettool protocol so the two entry points cannot drift
# apart.
lint:
	$(GO) run ./cmd/vidi-lint -tests ./...
	$(GO) build -o /tmp/vidi-lint-vettool ./cmd/vidi-lint
	$(GO) vet -vettool=/tmp/vidi-lint-vettool ./...

# Inventory of every in-source //lint:<analyzer> <reason> waiver, as the
# reviewable JSON artifact CI uploads next to the lint gate.
waivers:
	$(GO) run ./cmd/vidi-lint -waivers -json ./...

# Known-vulnerability scan. Locally skipped with a notice when the binary
# is absent (nothing is installed implicitly); CI installs a pinned version.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs a pinned version)"; \
	fi

# Strict external lint gate. Locally skipped with a notice when the binary
# is absent (nothing is installed implicitly); CI installs a pinned version.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs a pinned version)"; \
	fi

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# Kernel golden regressions, the fuzz-smoke seed batch and the design
# compiler's compiled-vs-golden matrix under the race detector: the suites
# that run both kernels side by side in parallel tests. VIDI_TRIPWIRE arms
# the dual-run determinism tripwire: every golden app re-run at GOMAXPROCS
# 1 and at the host's CPU count must produce byte-identical traces, VCD and
# telemetry.
race-golden:
	$(GO) test -race -count=1 -run 'TestKernelGolden' ./internal/eval
	VIDI_TRIPWIRE=1 $(GO) test -race -count=1 -run 'TestDeterminismTripwire' ./internal/eval
	$(GO) test -race -count=1 ./internal/fuzz
	$(GO) test -race -count=1 ./internal/design

# Differential conformance fuzzer: fresh seeds must run clean and every
# checked-in corpus reproducer must still fail its recorded oracle.
fuzz-smoke:
	$(GO) run ./cmd/vidi-fuzz -seeds 50 -corpus internal/fuzz/corpus

# Coverage-guided search: the frontier must grow (≥ 1 novel coverage vector),
# every oracle must stay clean, all five graph topology classes must be
# exercised, and the coverage report lands in BENCH_coverage.json.
fuzz-guided-smoke:
	$(GO) run ./cmd/vidi-fuzz -guided -seeds 60 -min-new 1 -coverage-out BENCH_coverage.json

# Native Go fuzzing, 20 s per target: the trace decoder, the storage frame
# codec, the trace round trip, the run log parser and the design-graph
# compiler. Arbitrary bytes must never panic, rejections must be typed or
# reported, and accepted inputs must re-encode to a fixpoint.
fuzz-native:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentLog$$' -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzGraphCompile$$' -fuzztime 20s ./internal/design
	$(GO) test -run '^$$' -fuzz '^FuzzBeatCodec$$' -fuzztime 20s ./internal/axi

# End-to-end telemetry smoke: an instrumented recording must emit a metrics
# snapshot vidi-top can render and a timeline it validates as trace_event
# JSON, and the live -app mode must work for both acceptance apps.
telemetry-smoke:
	$(GO) run ./cmd/vidi-record -app sssp -seed 42 -out /tmp/vidi-smoke.vidt \
	    -metrics /tmp/vidi-smoke-metrics.json -trace-out /tmp/vidi-smoke-trace.json
	$(GO) run ./cmd/vidi-top -metrics /tmp/vidi-smoke-metrics.json
	$(GO) run ./cmd/vidi-top -trace /tmp/vidi-smoke-trace.json
	$(GO) run ./cmd/vidi-top -app framefifo -seed 7

# Service fault matrix under the race detector: live vidi-serve instances
# take chaos-injected uploads (wire corruption, brownouts, store outages,
# kill-and-restart mid-session) and must end with zero corrupted manifests
# and zero silent divergences. The full 13-scenario matrix, not -short.
serve-chaos-smoke:
	$(GO) test -race -count=1 -run TestChaosMatrix ./internal/serve

# The same matrix through the shipped binary's operator entry point.
serve-chaos:
	$(GO) run ./cmd/vidi-serve -chaos

# Open-loop load harness under the race detector: 1100 seeded sessions
# (record/replay/compare/degraded mix) against a self-hosted vidi-serve,
# rendezvous-held until at least 1000 run concurrently. Fails on any
# session failure, silent divergence, spent error budget, or a peak below
# the floor. Race-detector latencies are not performance numbers, so the
# report goes to the ignored serve-load-race.json; the service's host-time
# numbers come from bench/'s serve-ingest and serve-replay workloads.
SERVE_LOAD_FLAGS = -sessions 1100 -min-concurrent 1000 -min-peak 1000 \
	-rate 4000 -seed 42 -segment-frames 32

serve-load-smoke:
	$(GO) run -race ./cmd/vidi-load $(SERVE_LOAD_FLAGS) -out serve-load-race.json

# One iteration of every Go benchmark: catches benchmarks that no longer
# compile or crash, without the noise of timed runs.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# The repo benchmark's own tests (bench/ is a separate module): the
# workload plans, the gates and the compare report.
bench-test:
	cd bench && $(GO) test ./...

# The exact sequence CI runs (.github/workflows/ci.yml).
ci: build vet lint staticcheck vuln fmt-check test-short test-race examples race-golden fuzz-smoke fuzz-guided-smoke fuzz-native telemetry-smoke serve-chaos-smoke serve-chaos serve-load-smoke bench-smoke bench-test bench

# The kernel counter gate: regenerates BENCH_kernel.json (per app, the R2
# and R3 cycles, each kernel's eval calls, and the scheduler's skipped ticks
# and batched cycles) and BENCH_metrics.json (the merged telemetry snapshot
# of the scheduler R2 runs), then fails unless both equal the committed
# files. Every number in them is exact and host-independent, so any diff is
# a behaviour change: commit the regenerated files and explain each moved
# counter. Host time is measured only by bench/run.sh.
bench:
	$(GO) run ./cmd/vidi-bench -table kernel -json BENCH_kernel.json -metrics BENCH_metrics.json
	git diff --exit-code -- BENCH_kernel.json BENCH_metrics.json

# Formatted paper-vs-measured tables (Table 1/2, Fig 7, §5.4, §6, sizes).
tables:
	$(GO) run ./cmd/vidi-bench -all

# Run every example end to end; each exits non-zero if its own check fails.
# examples/custom-boundary builds its own DDR memory, so this is the only
# place it runs rather than just compiles.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/debugging
	$(GO) run ./examples/testing
	$(GO) run ./examples/custom-boundary

clean:
	rm -f test_output.txt serve-load-race.json *.vidt *.vidz *.vcd
