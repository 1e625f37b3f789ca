GO ?= go
# bench-json pipes: a failed `go test` must fail the target.
SHELL := bash

# The microbenchmark suites, one per subsystem: `make bench-json SUITE=plan`
# runs the suite's benchmarks (the pattern BENCH_<suite> below) with
# allocation counts, five rounds each, and writes BENCH_<suite>.json via
# cmd/benchjson — stamped with the commit hash, UTC timestamp and Go
# version, so files from different commits compare directly (name,
# iterations, ns/op, B/op, allocs/op per entry). The raw `go test -bench`
# text goes to stderr. `make bench-suites` prints the suite names; CI loops
# over it with BENCHFLAGS='-benchtime 1x' as a does-it-still-run smoke.
#
#   eval       E1 transitive closure semi-naive, E5 disjoint paths, E14
#              index ablation, E24 incremental maintenance vs re-evaluation
#   pebble     E25 packed worklist game solver vs the reference algorithm
#   magic      E26 magic-set rewrite vs saturation vs top-down tabling
#   plan       E27 planned vs textual join order, planning/stats/cache cost
#   storage    E28 commit latency per fsync policy, cold-start recovery
#   stream     E29 streamed vs materialized drain, limit-N early stop
#   subscribe  E30 commit-to-notification latency, subscriber fan-out
SUITES := eval pebble magic plan storage stream subscribe
BENCH_eval      := BenchmarkE1_TransitiveClosureSemiNaive|BenchmarkE5_DisjointPathsProgram|BenchmarkE14_IndexAblation|BenchmarkE24_IncrementalMaintenance|BenchmarkE24_FullReeval
BENCH_pebble    := BenchmarkE25_
BENCH_magic     := BenchmarkE26_
BENCH_plan      := BenchmarkE27_
BENCH_storage   := BenchmarkE28_
BENCH_stream    := BenchmarkE29_
BENCH_subscribe := BenchmarkE30_
SUITE ?= eval
BENCHFLAGS ?= -count 5

.PHONY: build test verify loc bench-e2e bench-e2e-smoke bench-e2e-compare ab bench-json bench-suites clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: build, full tests, vet, a gofmt check over
# every tracked Go file (benchmark/ included), and the race
# detector over the packages with concurrent code paths (the evaluator's
# published snapshots, whose relations many goroutines read and build
# join indexes on at once, the pebble-game referee and worker pool, the
# incremental service with its concurrent query/commit front end and
# subscription hub, the WAL with its group-commit flusher, the metrics
# registry, the LRU the caches share, and the streaming executor whose
# streams share a snapshot's relations with the evaluations beside them).
# The end-to-end benchmark is a module of its own (benchmark/go.mod) that
# ./... does not reach, so its tests are run by name.
verify:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -C benchmark .
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race ./internal/datalog/... ./internal/magic/... ./internal/pebble/... ./internal/service/... ./internal/obs/... ./internal/plan/... ./internal/storage/... ./internal/lru/... ./internal/stream/...

# loc prints the non-test Go lines of every package under internal/ and
# cmd/ and the repo total (tracked files; benchmark/, a module of its own,
# left out): the numbers ROADMAP's line gates quote.
loc:
	@for d in $$(git ls-files 'internal/*.go' 'cmd/*.go' | grep -v _test.go | xargs -n1 dirname | sort -u); do \
		printf '%6d %s\n' $$(git ls-files ":(glob)$$d/*.go" | grep -v _test.go | xargs cat | wc -l) $$d; \
	done
	@printf '%6d total\n' $$(git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l)

# bench-e2e runs the end-to-end benchmark BENCHMARK.json declares (see
# benchmark/README.md): every workload by default, or whatever ARGS says,
#   make bench-e2e ARGS='-workload goal-read -seed 7 -trace 1 -out benchmark/out/b.json'
# bench-e2e-compare judges two sets of such result files, comma-separated,
# metric by metric (ok / worse / unresolved; exit 1 on a worse),
#   make bench-e2e-compare A=a1.json,a2.json B=b1.json,b2.json
# bench-e2e-smoke is one mixed run, one traced commit-churn run, one
# goal-read run and one view-read run, judged by their exit codes alone: it
# builds the frozen harness against the packages as they are now, checks
# every page, goal and commit against the oracle and enforces run validity
# — the way a change to internal/ breaks the benchmark pipeline without
# failing a test. commit-churn is the only workload with the SSE-replay and
# SIGKILL/restart checks, and -trace 1 adds the replay that drives an
# Incremental by hand and compares its views with the server's; goal-read
# is the only one whose oracle checks bound JSON tc goals (the recursive
# answers the stream executor's fixpoint computes) beside NDJSON hop2
# goals; view-read is the only one whose oracle walks both published views
# page by page at a fixed version (~3.5 min together).
bench-e2e:
	bash benchmark/run.sh $(ARGS)

bench-e2e-smoke:
	bash benchmark/run.sh -workload mixed -seed 1
	bash benchmark/run.sh -workload commit-churn -seed 1 -trace 1
	bash benchmark/run.sh -workload goal-read -seed 1
	bash benchmark/run.sh -workload view-read -seed 1

bench-e2e-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# ab measures the working tree against a base revision by alternated pairs
# of end-to-end runs (ab.sh has the protocol): PAIRS pairs of each of
# WORKLOADS (default every workload), base exported from BASE, reports kept
# under .bench_build/ab/<stamp>/; it prints each side's median and
# quartiles, the change in median, the wins per metric and run.sh
# -compare's verdicts. Ten pairs of one workload take about ten minutes.
#   make ab BASE=HEAD~1 WORKLOADS='commit-churn view-read'
BASE ?= HEAD
PAIRS ?= 10
WORKLOADS ?=
ab:
	bash ab.sh -base $(BASE) -pairs $(PAIRS) $(WORKLOADS)

bench-json:
	@test -n '$(BENCH_$(SUITE))' || { echo 'bench-json: no suite "$(SUITE)"; SUITE is one of: $(SUITES)' >&2; exit 2; }
	set -o pipefail; $(GO) test -run '^$$' -bench '$(BENCH_$(SUITE))' -benchmem $(BENCHFLAGS) . | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_$(SUITE).json

bench-suites:
	@echo $(SUITES)

clean:
	rm -f $(SUITES:%=BENCH_%.json)
