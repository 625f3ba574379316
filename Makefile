# Developer entry points. `make verify` is the repo's gate: vet,
# build, the positlint static-analysis suite, the full test suite, and
# a race-detector pass over every package.

GO ?= go

.PHONY: verify vet build lint test race serve chaos benchcheck bench-runner bench-lint bench-kernels bench-service bench-jobs bench-tables bench-shadow profile

verify: vet build lint test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# positlint: the repo-specific analyzers (precision laundering,
# deterministic output, lock hygiene, error discipline, panic
# discipline, registry consistency, plus the interprocedural rules:
# xprecision, durability, ctxprop, mutexio, unusedallow). The fact
# cache under .positlint-cache makes re-runs near-instant; delete the
# directory to force a cold analysis. See internal/lint.
lint:
	$(GO) run ./cmd/positlint -cache .positlint-cache

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos: run every durable path's invariant suite under randomized
# deterministic fault schedules (internal/faultfs). Environment knobs:
#   POSITLAB_CHAOS_SEED=N    base seed (new schedules per base)
#   POSITLAB_CHAOS_N=N       schedules per package
#   POSITLAB_CHAOS_REPLAY=N  reproduce one printed failure seed
#   POSITLAB_CHAOS_DROP_SYNC=1  canary: tests MUST fail under it
chaos:
	$(GO) test -run TestChaos -count=1 -v ./internal/jobs/ ./internal/runner/ ./internal/arith/ ./internal/shadow/

# Re-assert the checked-in performance contracts (BENCH_shadow.json
# overhead ratios, BENCH_jobs.json throughput floor, BENCH_lint.json
# warm-cache speedup) at generous tolerances. See cmd/benchcheck.
benchcheck:
	$(GO) run ./cmd/benchcheck

# Reproduce BENCH_runner.json's timing comparison on a small subset
# (the checked-in file records the full 19-matrix suite).
bench-runner:
	$(GO) build -o /tmp/positlab-experiments ./cmd/experiments
	time /tmp/positlab-experiments -jobs 1 all >/dev/null
	time /tmp/positlab-experiments -jobs 4 all >/dev/null

# Reproduce BENCH_kernels.json: the slice-kernel hot loops (dot, CSR
# matvec, Cholesky) across formats.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Dot1024|MatVec1000|MatVecT1000|Cholesky200' -benchtime 2s ./internal/linalg/

# Reproduce BENCH_lint.json: the linter's full-repo load, the per-run
# analysis cost, and the cold vs warm fact-cache comparison.
bench-lint:
	$(GO) test -run '^$$' -bench 'BenchmarkLoadRepo|BenchmarkRunRules|BenchmarkRepoCold|BenchmarkRepoWarm' -benchtime 3x ./internal/lint/

# Run the positd HTTP server on :8787 with a local disk cache for
# experiment results. See README "Serving" for the endpoints.
serve:
	$(GO) run ./cmd/positd -cache .cache/positd

# Reproduce the table-engine rows of BENCH_kernels.json: the 16-bit
# Cholesky/IR hot paths on the exhaustive-LUT fast path, the one-time
# table-build cost (with resident bytes per format), and the tabulated
# 8-bit scalar throughput.
bench-tables:
	$(GO) test -run '^$$' -bench 'Cholesky200(Float16|BFloat16|Posit16e1|Posit16e2)' -benchtime 2s ./internal/linalg/
	$(GO) test -run '^$$' -bench 'MixedIR' -benchtime 2s ./internal/solvers/
	$(GO) test -run '^$$' -bench 'TableBuild' ./internal/arith/

# Capture a CPU profile of the table-driven 16-bit Cholesky hot path
# and print the top functions. Inspect interactively with
# `go tool pprof /tmp/positlab-cholesky.prof`.
profile:
	$(GO) test -run '^$$' -bench 'Cholesky200Float16' -benchtime 2s \
		-cpuprofile /tmp/positlab-cholesky.prof ./internal/linalg/
	$(GO) tool pprof -top -nodecount 15 /tmp/positlab-cholesky.prof

# Reproduce BENCH_service.json: closed-loop req/s and latency for the
# serving layer (convert batches and warm cached experiments), plus
# the Go micro-benchmarks for the same paths.
bench-service:
	POSITLAB_BENCH_SERVICE=1 $(GO) test -run TestWriteServiceBenchReport ./internal/service/
	$(GO) test -run '^$$' -bench 'BenchmarkService' -benchtime 2s ./internal/service/

# Reproduce BENCH_shadow.json: shadow-wrapper overhead (off vs default
# sampling vs full measurement) on the Dot1024 and Cholesky200
# workloads, plus the raw Go micro-benchmarks for the same paths. The
# report test also asserts the overhead contract (sampled <= 2x,
# full <= 10x on cholesky200).
bench-shadow:
	POSITLAB_BENCH_SHADOW=1 $(GO) test -run TestWriteShadowBenchReport -v ./internal/shadow/
	$(GO) test -run '^$$' -bench 'Dot1024Posit16e2|Cholesky200Posit16e2' -benchtime 1s ./internal/shadow/

# Reproduce BENCH_jobs.json: submit-to-complete throughput of the
# durable job store (ephemeral / journaled / journaled-nosync) and
# journal replay latency at several backlog sizes, plus the raw Go
# micro-benchmarks for the same paths.
bench-jobs:
	POSITLAB_BENCH_JOBS=1 $(GO) test -run TestWriteJobsBenchReport ./internal/jobs/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitComplete|BenchmarkReplay' -benchtime 1s ./internal/jobs/
