GO ?= go

# Benchmarks that gate evaluation-core performance work (E1: transitive
# closure semi-naive; E5: disjoint paths; E14: index ablation; E24:
# incremental maintenance vs. from-scratch re-evaluation).
BENCH_PATTERN := BenchmarkE1_TransitiveClosureSemiNaive|BenchmarkE5_DisjointPathsProgram|BenchmarkE14_IndexAblation|BenchmarkE24_IncrementalMaintenance|BenchmarkE24_FullReeval

# Benchmarks that gate pebble-game solver performance work (E25: packed
# worklist solver vs the retained reference algorithm, parallelism sweep,
# and the homomorphism-variant guard).
BENCH_PEBBLE_PATTERN := BenchmarkE25_

# Benchmarks that gate goal-directed evaluation (E26: magic-set rewrite
# vs full saturation vs top-down tabling on bound queries).
BENCH_MAGIC_PATTERN := BenchmarkE26_

# Benchmarks that gate the cost-based join planner (E27: adversarially
# ordered rule bodies planned vs textual, planning/stats/cache-hit cost,
# and the subsumption pre-pass).
BENCH_PLAN_PATTERN := BenchmarkE27_

# Benchmarks that gate the durable storage subsystem (E28: commit latency
# per fsync policy vs the memory-only floor, and cold-start recovery time
# vs WAL length with and without checkpoints).
BENCH_STORAGE_PATTERN := BenchmarkE28_

# Benchmarks that gate the streaming execution layer (E29: full drain of
# a layered join streamed vs materialized, and limit-N early
# termination).
BENCH_STREAM_PATTERN := BenchmarkE29_

# Benchmarks that gate live subscriptions (E30: commit-to-notification
# latency through maintenance, delta extraction and hub delivery, and
# fan-out scaling across concurrent subscribers).
BENCH_SUBSCRIBE_PATTERN := BenchmarkE30_

# Benchmarks that gate the sharded evaluation subsystem (E31: saturation
# fixpoint and commit maintenance throughput at N workers vs the
# single-node engine, and the cross-shard exchange overhead).
BENCH_SHARD_PATTERN := BenchmarkE31_

.PHONY: build test verify bench-e2e bench-e2e-smoke bench-e2e-compare bench bench-json bench-pebble bench-pebble-json bench-magic bench-magic-json bench-plan bench-plan-json bench-storage bench-storage-json bench-stream bench-stream-json bench-subscribe bench-subscribe-json bench-shard bench-shard-json clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: build, full tests, vet, and the race
# detector over the packages with concurrent code paths (the parallel
# rule-firing worker pool, the pebble-game referee, the incremental
# service with its concurrent query/commit front end and subscription
# hub, the WAL with its group-commit flusher, and the metrics registry).
# The streaming executor gets its own -count=3 race pass: its property
# suite is seeded-random, and repeated runs vary the operator-tree
# shapes the env-ownership assertions see. The end-to-end benchmark is a
# module of its own (benchmark/go.mod) that ./... does not reach, so its
# tests are run by name.
verify:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -C benchmark .
	$(GO) vet ./...
	$(GO) test -race ./internal/datalog/... ./internal/magic/... ./internal/pebble/... ./internal/service/... ./internal/obs/... ./internal/plan/... ./internal/storage/... ./internal/shard/...
	$(GO) test -race -count=3 ./internal/stream/...

# bench-e2e runs the end-to-end benchmark BENCHMARK.json declares (see
# benchmark/README.md): every workload by default, or whatever ARGS says,
#   make bench-e2e ARGS='-workload goal-read -seed 7 -trace 1 -out benchmark/out/b.json'
# bench-e2e-compare judges two sets of such result files, comma-separated,
# metric by metric (ok / worse / unresolved; exit 1 on a worse),
#   make bench-e2e-compare A=a1.json,a2.json B=b1.json,b2.json
# bench-e2e-smoke is one mixed run and one traced commit-churn run judged
# by their exit codes alone: it builds the frozen harness against the
# packages as they are now, checks every page, goal and commit against the
# oracle and enforces run validity — the way a change to internal/ breaks
# the benchmark pipeline without failing a test. commit-churn is the only
# workload with the SSE-replay and SIGKILL/restart checks, and -trace 1
# adds the replay that drives an Incremental by hand and compares its
# views with the server's (~2 min together).
bench-e2e:
	bash benchmark/run.sh $(ARGS)

bench-e2e-smoke:
	bash benchmark/run.sh -workload mixed -seed 1
	bash benchmark/run.sh -workload commit-churn -seed 1 -trace 1

bench-e2e-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# bench runs the evaluation-core benchmarks with allocation counts and
# keeps the raw text output in BENCH_eval.txt.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count 5 . | tee BENCH_eval.txt

# bench-json additionally converts the raw output to BENCH_eval.json via
# cmd/benchjson, stamped with the commit hash, UTC timestamp, and Go
# version so bench files from different commits are directly comparable
# (name, iterations, ns/op, B/op, allocs/op per entry).
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count 5 . | tee BENCH_eval.txt | $(GO) run ./cmd/benchjson > BENCH_eval.json

# bench-pebble / bench-pebble-json are the same harness pointed at the
# E25 game-solver benchmarks, producing BENCH_pebble.{txt,json}.
bench-pebble:
	$(GO) test -run '^$$' -bench '$(BENCH_PEBBLE_PATTERN)' -benchmem -count 5 . | tee BENCH_pebble.txt

bench-pebble-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PEBBLE_PATTERN)' -benchmem -count 5 . | tee BENCH_pebble.txt | $(GO) run ./cmd/benchjson > BENCH_pebble.json

# bench-magic / bench-magic-json point the same harness at the E26
# goal-directed evaluation benchmarks, producing BENCH_magic.{txt,json}.
bench-magic:
	$(GO) test -run '^$$' -bench '$(BENCH_MAGIC_PATTERN)' -benchmem -count 5 . | tee BENCH_magic.txt

bench-magic-json:
	$(GO) test -run '^$$' -bench '$(BENCH_MAGIC_PATTERN)' -benchmem -count 5 . | tee BENCH_magic.txt | $(GO) run ./cmd/benchjson > BENCH_magic.json

# bench-plan / bench-plan-json point the same harness at the E27 join
# planner benchmarks, producing BENCH_plan.{txt,json}.
bench-plan:
	$(GO) test -run '^$$' -bench '$(BENCH_PLAN_PATTERN)' -benchmem -count 5 . | tee BENCH_plan.txt

bench-plan-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PLAN_PATTERN)' -benchmem -count 5 . | tee BENCH_plan.txt | $(GO) run ./cmd/benchjson > BENCH_plan.json

# bench-storage / bench-storage-json point the same harness at the E28
# durable-storage benchmarks, producing BENCH_storage.{txt,json}.
bench-storage:
	$(GO) test -run '^$$' -bench '$(BENCH_STORAGE_PATTERN)' -benchmem -count 5 . | tee BENCH_storage.txt

bench-storage-json:
	$(GO) test -run '^$$' -bench '$(BENCH_STORAGE_PATTERN)' -benchmem -count 5 . | tee BENCH_storage.txt | $(GO) run ./cmd/benchjson > BENCH_storage.json

# bench-stream / bench-stream-json point the same harness at the E29
# streaming-execution benchmarks, producing BENCH_stream.{txt,json}.
bench-stream:
	$(GO) test -run '^$$' -bench '$(BENCH_STREAM_PATTERN)' -benchmem -count 5 . | tee BENCH_stream.txt

bench-stream-json:
	$(GO) test -run '^$$' -bench '$(BENCH_STREAM_PATTERN)' -benchmem -count 5 . | tee BENCH_stream.txt | $(GO) run ./cmd/benchjson > BENCH_stream.json

# bench-subscribe / bench-subscribe-json point the same harness at the
# E30 live-subscription benchmarks, producing BENCH_subscribe.{txt,json}.
bench-subscribe:
	$(GO) test -run '^$$' -bench '$(BENCH_SUBSCRIBE_PATTERN)' -benchmem -count 5 . | tee BENCH_subscribe.txt

bench-subscribe-json:
	$(GO) test -run '^$$' -bench '$(BENCH_SUBSCRIBE_PATTERN)' -benchmem -count 5 . | tee BENCH_subscribe.txt | $(GO) run ./cmd/benchjson > BENCH_subscribe.json

# bench-shard / bench-shard-json point the same harness at the E31
# sharded-evaluation benchmarks, producing BENCH_shard.{txt,json}.
bench-shard:
	$(GO) test -run '^$$' -bench '$(BENCH_SHARD_PATTERN)' -benchmem -count 5 . | tee BENCH_shard.txt

bench-shard-json:
	$(GO) test -run '^$$' -bench '$(BENCH_SHARD_PATTERN)' -benchmem -count 5 . | tee BENCH_shard.txt | $(GO) run ./cmd/benchjson > BENCH_shard.json

clean:
	rm -f BENCH_eval.txt BENCH_eval.json BENCH_pebble.txt BENCH_pebble.json BENCH_magic.txt BENCH_magic.json BENCH_plan.txt BENCH_plan.json BENCH_storage.txt BENCH_storage.json BENCH_stream.txt BENCH_stream.json BENCH_subscribe.txt BENCH_subscribe.json BENCH_shard.txt BENCH_shard.json
