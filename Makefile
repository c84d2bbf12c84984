# Core benchmarks tracked across PRs: the precompute grid (allocations per
# replay are the dense-engine target figure), the cluster-space build
# (generation plus posting bitmaps; coverage fills on demand) and its
# incremental successor, the per-replay sweep unit, the single-run
# algorithms, the Delta-Judgment ablation, and the live-table
# append/refresh cycle.
BENCH_ROOT    := BenchmarkFig7PrecomputeKParallel|BenchmarkFig6VaryD|BenchmarkFig8Delta|BenchmarkBuildIndexMovieLens|BenchmarkApplyDelta|BenchmarkExecuteMovieLens|BenchmarkAppendWAL|BenchmarkAppendRows|BenchmarkJoinMovieLens|BenchmarkJoinTriangle|BenchmarkTraceOverhead|BenchmarkLiveRefresh
BENCH_SUMMARIZE := BenchmarkSweeperRunD
BENCH_COUNT   ?= 1
BENCH_TIME    ?= 3x
BENCH_OUT     ?= bench.txt
BENCH_JSON    ?= BENCH_10.json

.PHONY: build test race bench benchgate fuzz fmt vet lint qagcheck crash ci e2e e2ebench-test serve

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

fmt:
	gofmt -l .

# lint builds the repo's own analyzer suite (docs/ANALYZERS.md) and runs it
# over every package via the go vet -vettool protocol. Violations of the
# determinism/COW/concurrency invariants fail the build; deliberate
# exceptions carry //qag:allow <analyzer> <reason>.
lint:
	go build -o bin/qagvet ./cmd/qagvet
	go vet -vettool=$(CURDIR)/bin/qagvet ./...

# qagcheck runs the test suite with the runtime assertion build tag: index
# coverage ordering, codec capacity, and solution antichain checks panic on
# violation instead of compiling to nothing.
qagcheck:
	go test -tags qagcheck ./...

# crash compiles the fault-injection hooks in (-tags qagfault,
# docs/FAULTS.md) and runs the crash harness under the race detector: a
# child qagviewd server is SIGKILLed at every registered WAL/snapshot crash
# point and recovery must preserve every acknowledged write, plus sticky
# fsync-failure and torn-write tests.
crash:
	go test -race -tags qagfault ./internal/wal/... ./internal/server/... ./internal/faultinject/...

# bench runs the tracked benchmarks with allocation reporting and writes the
# result to $(BENCH_OUT), the artifact CI uploads as the perf baseline, plus
# a machine-readable $(BENCH_JSON) (benchmark name -> ns/op, B/op, allocs/op)
# so the perf trajectory can be diffed across PRs without text parsing.
bench:
	go test -run '^$$' -bench '$(BENCH_ROOT)' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) . | tee $(BENCH_OUT)
	go test -run '^$$' -bench '$(BENCH_SUMMARIZE)' -benchmem -benchtime 50x -count $(BENCH_COUNT) ./internal/summarize/ | tee -a $(BENCH_OUT)
	go run ./cmd/benchjson < $(BENCH_OUT) > $(BENCH_JSON)

# benchgate re-measures and fails on a >30% regression against the
# committed baseline (the CI bench job's gate). Refresh the baseline from a
# trusted run: make bench && cp $(BENCH_JSON) bench_baseline.json
benchgate: bench
	go run ./cmd/benchcmp -baseline bench_baseline.json -candidate $(BENCH_JSON) -threshold 0.30

# fuzz gives the SQL front end and the cluster kernels a short adversarial
# workout: the parser fuzzer, the differential executor fuzzer (reference vs
# vectorized at par 1/8 x auto/hash/generic join paths, including multi-word
# keys), on-demand coverage against the naive index, and the word-parallel
# greedy kernel against the list-based one.
fuzz:
	go test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/engine/
	go test -run '^$$' -fuzz FuzzExec -fuzztime 30s ./internal/engine/
	go test -run '^$$' -fuzz FuzzLazyCoverage -fuzztime 30s ./internal/lattice/
	go test -run '^$$' -fuzz FuzzGreedyKernel -fuzztime 30s ./internal/summarize/

# e2e builds qagviewd and drives its session/solution/diff endpoints.
e2e:
	./scripts/e2e_smoke.sh

# e2ebench-test runs the end-to-end benchmark's self-test: e2ebench/ is a
# module of its own that imports internal APIs, so it builds against this
# tree and runs tiny traced and untraced runs of every workload.
e2ebench-test:
	cd e2ebench && go test ./...

# serve runs the exploration server on :8080 with the MovieLens sample.
serve:
	go run ./cmd/qagviewd -addr :8080 -sample movielens

# ci runs locally what the CI workflow's jobs check, short of the fuzz
# smokes, the repeated concurrency step, the staticcheck and govulncheck
# installs, and the benchmark gate.
ci: vet lint build test race qagcheck crash e2ebench-test
