GO ?= go

.PHONY: build test race vet fmt lint lint-repo check bench bench-pass bench-snapshot bench-smoke serve-smoke redteam-smoke temporal-differential

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt -l prints the names of misformatted files; treat any output as failure.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis of the example programs: must all be provably safe (exit 0).
lint:
	$(GO) run ./cmd/mte4jni lint examples/lint

# Repo-invariant lint: tools/lintrepo's custom passes run over every package
# via the go vet -vettool protocol (noinline fault constructors, mem.Space
# encapsulation, //mte4jni:fastpath allocation/timestamp bans, atomic field
# consistency). The tool binary is built into a scratch dir so nothing
# lands in the working tree.
lint-repo:
	@tmp="$$(mktemp -d)"; \
	$(GO) build -o "$$tmp/lintrepo" ./tools/lintrepo && \
	$(GO) vet -vettool="$$tmp/lintrepo" ./...; \
	st=$$?; rm -rf "$$tmp"; exit $$st

bench:
	$(GO) test -bench=. -benchmem ./...

# One pass over every row of the BENCH_*.json snapshots, as raw `go test
# -bench` text: the paper's Figure 5/6 rows from the root package and each
# layer's microbenchmarks from the package they time. Settings are fixed so
# that passes over two trees compare. A -bench pattern deeper than a
# benchmark's name runs only its sub-benchmarks, hence one line per depth.
bench-pass:
	@run() { $(GO) test -run '^$$' -benchmem -benchtime 10ms -count 10 -bench "$$@" || exit 1; }; \
	run '^Benchmark(Fig5SingleThread|Fig6MultiThread)$$//^(n=2\^12|same-array|different-arrays)$$' .; \
	run '^Benchmark(Fig5Elision|TagAllocRelease|TagFootprint)$$' .; \
	run '^BenchmarkLoad64(Checked|Unguarded)$$' ./internal/mem; \
	run '^Benchmark(CopyOutChecked|CopyOutUnguarded|MoveChecked|SetTagRange)$$/^n=16384$$' ./internal/mem; \
	run '^BenchmarkAllocFree(Serial|Parallel8)$$/^size=256$$' ./internal/heap; \
	run '^Benchmark(ScreenInline|Throughput)$$' ./internal/analysis ./internal/pool

# A benchmark snapshot (~7 min): ten bench-pass runs, folded by `mte4jni
# bench -parse` into one row per benchmark (its fastest run, with the
# spread across runs) and printed as snapshot JSON. On a shared host the
# fastest run is the one that caught the host quiet, and quiet stretches
# come and go within a second, so each row gets many short runs: ten back
# to back per pass, over ten passes minutes apart. With five 200 ms runs,
# ten 100 ms runs or fifty 20 ms runs per row, identical code still came
# out 11-30% apart on some rows of a 2-vCPU host.
bench-snapshot:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for pass in 1 2 3 4 5 6 7 8 9 10; do $(MAKE) -s bench-pass || exit 1; done >"$$tmp/bench.txt" && \
	$(GO) run ./cmd/mte4jni bench -parse "$$tmp/bench.txt"

# Quick perf sanity: the paper's Figure 5/6 benchmarks plus the elided-vs-
# checked proof-carrying pair at -benchtime=10x, and the zero-allocation
# guards on the fault-free checked path, the guard-free elided path, and the
# TLAB hit path. Catches perf-path regressions (fast path falling off,
# allocations creeping in) in seconds rather than validating absolute numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig5SingleThread|BenchmarkFig5Elision|BenchmarkFig6MultiThread' -benchtime=10x .
	$(GO) test -run 'TestCheckedAccessAllocs|TestUnguardedAccessAllocs' ./internal/mem
	$(GO) test -run 'TestElidedDispatchAllocs' ./internal/interp
	$(GO) test -run 'TestAllocTLABHitAllocs' ./internal/heap

# End-to-end gate for the serving layer: `mte4jni serve` with the full
# 64-session pool on an ephemeral port, driven by `mte4jni load` (mixed
# faulting traffic, then a 64-worker full-capacity burst), /metrics
# reconciliation, clean SIGTERM shutdown. Also runs the sharded-admission
# section (8 shards, exact per-shard lease reconciliation + balance check),
# the cluster section (2 daemons behind the built-in L7 balancer, open-loop
# Poisson load gated on p99 SLO, drain-aware SIGTERM), and the shard-scaling
# bench gate. See scripts/serve_smoke.sh.
serve-smoke:
	GO="$(GO)" sh ./scripts/serve_smoke.sh

# Temporal-screening soundness gate: every red-team corpus attack program
# must be statically flagged with its exact window class and four-step
# provenance chain, every dynamic known-miss must be a static catch, and the
# generated fuzz corpus must produce zero false flags.
temporal-differential:
	$(GO) test -run 'TestTemporalCorpusStatic|TestTemporalDynamicMissesAreStaticCatches|TestTemporalGeneratedNoFalseFlags' -v ./internal/fuzz

# Adversarial gate: the offline `mte4jni redteam` campaign must match the
# analytic 15/16-per-probe brute-force model and account for every §2.3
# guarded-copy blind spot, then a serve+load run with the escalating
# defense enabled must reconcile every attack/throttle/reseed counter
# exactly. See scripts/redteam_smoke.sh.
redteam-smoke:
	GO="$(GO)" sh ./scripts/redteam_smoke.sh

# Extended tier-1 gate (see ROADMAP.md).
check: fmt vet lint-repo race lint temporal-differential bench-smoke serve-smoke redteam-smoke
	@echo "check: ok"
