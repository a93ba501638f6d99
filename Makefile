GO ?= go

# The packed GEMM micro-kernel accumulates with math.FMA, which compiles
# to a bare VFMADD under GOAMD64=v3 but carries a per-call CPU-feature
# branch at the v1 default (~2.5x slower on the dense kernels). All hosts
# we target have AVX2+FMA; override with `make GOAMD64=v1 ...` for
# baseline-compatible builds. Results are bit-identical either way —
# math.FMA computes the same correctly-rounded value on every path.
export GOAMD64 ?= v3

.PHONY: build test tier1 lint bench bench-gemm bench-dist bench-lint vet fmt journal-demo trace-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static-analysis gate: the repolint analyzer suite (stdlib go/ast +
# go/types checks enforcing the determinism, concurrency, and
# crash-safety invariants — DESIGN.md §10) plus gofmt cleanliness.
# Zero unsuppressed diagnostics or the build fails; deliberate waivers
# carry a //lint:ignore <check> <reason> annotation.
lint:
	$(GO) run ./cmd/repolint
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

# Tier-1 gate: static analysis, vet, and race-enabled tests for every
# package in the module (the race gate covers the worker pool, parallel
# kernels, parallel ALSH workers — including internal/core's golden
# weight digests and the multi-worker twin-run determinism tests —
# tracer/metrics registry, the checkpoint/resume machinery, and the
# serving layer's concurrent predict + hot-swap path; on the 2-CPU host
# the race run takes ~3 min wall, packages side by side, the longest
# being the root package's integration tests at ~145 s, internal/bench
# at ~70 s and benchmark/ at ~50 s), then three seconds each of the two
# fuzz targets over bytes a peer controls: binio frames and dist's gradient
# payloads (error or valid value, never a panic, allocation bounded by
# the input's length).
tier1: lint
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 3s ./internal/binio
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeGradPayload$$' -fuzztime 3s ./internal/dist

bench:
	$(GO) test -run '^$$' -bench . -benchtime 10x .

# The three component ledgers, all through cmd/bench (one envelope, one
# atomic write; see its doc comment for what each suite measures that
# benchmark/ does not).
#
# Serial-vs-parallel GEMM kernel sweep under the block sizes every run
# uses; every parallel point is checked bit-for-bit against the serial
# kernel before its timing is recorded. -baseline gates the run against
# the committed report, failing on any serial point that lost >20%
# GFLOPS and when no point could be compared (the output is written only
# when the gate passes).
bench-gemm:
	$(GO) run ./cmd/bench gemm -baseline BENCH_gemm.json

# Distributed data-parallel throughput sweep on the two benchmark shapes:
# steady-state steps/sec and the coordinator's encode / wire / fold /
# apply split at 1 and 2 worker processes (2 shards, as benchmark/ runs
# its dist stage) against the in-process reference, every point checked
# byte-for-byte against the single-process weights before it is recorded.
bench-dist:
	$(GO) run ./cmd/bench dist

# Analyzer-suite timing: loader wall time (parse + wave-parallel
# type-checking over internal/pool) and analysis wall time (call graph,
# fact fixpoint, checks) over the real module, each iteration from a
# cold loader.
bench-lint:
	$(GO) run ./cmd/bench lint

# Two-epoch synthetic run that journals every event, then pretty-prints
# the journal — the fastest way to see the telemetry schema end to end.
journal-demo:
	rm -f /tmp/journal-demo.jsonl
	$(GO) run ./cmd/mlptrain -dataset mnist -method alsh -epochs 2 \
		-train 400 -test 100 -units 64 -layers 2 -confusion=false \
		-journal /tmp/journal-demo.jsonl
	$(GO) run ./cmd/journalcat /tmp/journal-demo.jsonl

# Two-epoch synthetic run with the span tracer and error-compounding
# probe enabled; writes /tmp/trace-demo.json, loadable in Perfetto
# (https://ui.perfetto.dev) or chrome://tracing.
trace-demo:
	$(GO) run ./cmd/mlptrain -dataset mnist -method alsh -epochs 2 \
		-train 400 -test 100 -units 64 -layers 2 -confusion=false \
		-probe-every 10 -trace /tmp/trace-demo.json
	@echo "trace written to /tmp/trace-demo.json — open in https://ui.perfetto.dev"

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .
