GO ?= go

.PHONY: all build test race cover bench bench-json ci fig3 fig4 ablations verify test-faults test-fastbcc test-obs lint-obs fuzz-durable fuzz-shard test-shard test-incr fuzz-incr race-service test-crash test-repl test-failover test-scrub fuzz-repl test-plan fuzz-plan vet-bench bench-smoke fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Full benchmark suite (every table/figure bench plus ablations and
# per-substrate microbenchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's figures (scale relative to the paper's n=1M).
SCALE ?= 0.1
REPS  ?= 3

fig3:
	$(GO) run ./cmd/bccbench -scale $(SCALE) -reps $(REPS) -csv results/fig3.csv | tee results/fig3.txt

fig4:
	$(GO) run ./cmd/bccbreakdown -scale $(SCALE) -reps $(REPS) -csv results/fig4.csv | tee results/fig4.txt

ablations:
	$(GO) test -run xxx -bench 'Ablation' -benchtime 3x . | tee results/ablations.txt

# Randomized cross-validation of all algorithms.
verify:
	$(GO) run ./cmd/bccverify -trials 500

# Fault-isolation suite: the site × kind × algorithm injection matrix, the
# supervisor/fallback tests, and the race-enabled service fault hammer.
test-faults:
	$(GO) test -race -run 'Fault|Fallback|Panic|Breaker|Drain|AttemptTimeout' . ./internal/par ./internal/faults ./internal/service

# Machine-readable medians for the five algorithms (CI trend tracking).
# BENCH_1.json is the single-p snapshot; BENCH_2.json sweeps every parallel
# engine (fast-bcc included) at p=1 and p=4 for the TV-vs-FAST-BCC
# comparison. BENCH_3.json is the planner sweep: p ∈ {1,2,4,8} across all
# three densities, with -plan adding auto-static vs auto-plan rows derived
# from the measured medians (which engine each auto policy would have
# dispatched, and what it actually cost).
bench-json:
	$(GO) run ./cmd/bccjson -scale $(SCALE) -reps $(REPS) -o BENCH_1.json
	$(GO) run ./cmd/bccjson -scale $(SCALE) -reps $(REPS) -sweep 1,4 -o BENCH_2.json
	$(GO) run ./cmd/bccjson -scale $(SCALE) -reps $(REPS) -sweep 1,2,4,8 -all -plan -o BENCH_3.json

# FAST-BCC suite: the skeleton engine's differential families (byte-equality
# vs the sequential oracle), its fault-containment and phase tests, the
# cross-engine canonical-labeling check, and the engine rows it adds to the
# fault matrix — race-enabled.
test-fastbcc:
	$(GO) test -race ./internal/fastbcc -count=1
	$(GO) test -race -run 'CanonicalLabels' ./internal/core -count=1
	$(GO) test -race -run 'ParseAlgorithm|FuzzFastBCC' . -count=1

# Observability suite: the obs registry/exposition/trace tests (race-enabled,
# including the concurrent Observe-vs-scrape check) and the service's
# /metrics + ?trace=1 integration tests.
test-obs:
	$(GO) test -race ./internal/obs -run . -count=1
	$(GO) test -race -run 'Trace|Metrics' ./internal/service -count=1

# Durability suite. fuzz-durable hammers the WAL/snapshot/result decoders
# with ~10s of coverage-guided input per target: recovery code must never
# panic or over-read on arbitrary bytes. race-service runs the whole
# service package (durable wiring included) under the race detector.
# test-crash is the kill-and-restart chaos harness: bccd as a subprocess,
# SIGKILLed at each durable.* fault site, recovered, verified.
FUZZTIME ?= 10s

fuzz-durable:
	$(GO) test ./internal/durable -run FuzzNothing -fuzz FuzzDecodeWAL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run FuzzNothing -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run FuzzNothing -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME)

# Shard suite. test-shard runs the differential harness (shard answers must
# equal the monolith byte for byte across 3 graph families × 4 algorithms ×
# 5 query kinds), the block-cut invariant property tests, and the manager's
# residency/fault tests — race-enabled. fuzz-shard hammers the routing-index
# and shard payload decoders like fuzz-durable does the durable codecs.
test-shard:
	$(GO) test -race ./internal/shard -count=1
	$(GO) test -race -run 'Shard' ./internal/service ./internal/faults -count=1

fuzz-shard:
	$(GO) test ./internal/shard -run FuzzNothing -fuzz FuzzDecodeIndex -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -run FuzzNothing -fuzz FuzzDecodeShard -fuzztime $(FUZZTIME)

# Incremental suite. test-incr runs the planner's differential harness
# (every mutation sequence must leave labels byte-equal to a from-scratch
# run), the mutation endpoint's differential harness (3 graph families × 4
# engines, byte-equal JSON answers vs a server that uploaded the final
# graph), and the incr rows of the fault matrix — all race-enabled.
# fuzz-incr hammers the WAL delta-record decoder and the planner's Apply
# with arbitrary delta sequences.
test-incr:
	$(GO) test -race ./internal/incr -count=1
	$(GO) test -race -run 'Mutation|MutatedGraph|DeleteThenReupload' ./internal/service -count=1
	$(GO) test -race -run 'FaultMatrixIncr' ./internal/faults -count=1

fuzz-incr:
	$(GO) test ./internal/durable -run FuzzNothing -fuzz FuzzDecodeDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/incr -run FuzzNothing -fuzz FuzzApplyDeltas -fuzztime $(FUZZTIME)

race-service:
	$(GO) test -race ./internal/service ./internal/durable -count=1

test-crash:
	$(GO) test ./cmd/bccd -run 'Crash|SIGTERM' -count=1 -v

# Replication suite. test-repl runs the protocol/stream tests (ordering,
# ring-overflow snapshot resync, gap detection, quorum degrade), the router
# tests (hedging, most-caught-up promotion, mutation refusal), and the
# service-level differential harness: a warm standby must answer every graph
# family byte-equal to its primary under all four engines, refuse writes
# read-only, and leave a data directory that is a valid PR 4 recovery image
# — all race-enabled. The delete-vs-mutation race test rides along.
test-repl:
	$(GO) test -race ./internal/repl -count=1
	$(GO) test -race -run 'Replication|Promotion|StandbyWAL|PrimaryAlone|DeleteRacesMutation' ./internal/service -count=1

# Node-kill chaos harness: primary and standby bccd as separate processes,
# the primary SIGKILLed at the repl.ship/repl.ack fault sites mid-batch
# (and the standby at repl.promote mid-promotion), then router-driven
# failover asserted to serve every acked record byte-identical with the
# un-acked tail handled per site.
test-failover:
	$(GO) test ./cmd/bccd -run 'NodeKill' -count=1 -v

# Self-healing storage suite. test-scrub runs (race-enabled) the scrubber
# core, the KindCorrupt injection matrix rows (faults + per-tier image
# checks + ring scrub), the service-level repair-ladder/quarantine tests,
# and the bit-rot chaos harness: bccd subprocesses with real bytes flipped
# on disk per tier, scrubbed, and proven byte-identical afterward.
# fuzz-repl hammers the replication frame decoders like fuzz-durable does
# the durable codecs: arbitrary wire bytes must error, never panic, and
# never allocate far ahead of the stream.
test-scrub:
	$(GO) test -race ./internal/scrub -count=1
	$(GO) test -race -run 'Corrupt|Scrub|CheckWALImage|CheckSnapshotImage|CheckSpillImage|CheckBlobImage|SpillKeys' ./internal/faults ./internal/durable ./internal/repl ./internal/service -count=1
	$(GO) test -race -run 'Oracle|ReconstructRejects' . -count=1
	$(GO) test ./cmd/bccd -run 'BitRot' -count=1 -v

# Adaptive-planner suite. test-plan runs (race-enabled) the plan package's
# golden decision table and breaker-filter property tests, and the service
# tests: the fast-bcc-at-p=1 acceptance check, ?explain=1 echo-vs-dispatch,
# off-mode auto sharing cache entries with explicit queries, open-breaker
# avoidance, the planner-on vs planner-off differential harness (BCC + incr
# mutations + shard endpoints, byte-equal answers), and the /statsz plan
# golden.
# fuzz-plan hammers feature extraction with arbitrary graph shapes: no
# panics, every bucket class in range.
test-plan:
	$(GO) test -race ./internal/plan -count=1
	$(GO) test -race -run 'Plan' ./internal/service -count=1

fuzz-plan:
	$(GO) test ./internal/plan -run FuzzNothing -fuzz FuzzFeatures -fuzztime $(FUZZTIME)

fuzz-repl:
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzReadMsg$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzReadMsgAllocationBound -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseHello -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseSnapBegin -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseU64 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseU32 -fuzztime $(FUZZTIME)

# The benchmark driver is its own module (bccdbench/go.mod) built against
# the root package, so the root `go vet ./...` never sees it. Vet it in the
# environment bccdbench/run.sh uses, so a root API change cannot silently
# break the benchmark.
vet-bench:
	cd bccdbench && GOPROXY=off GOWORK=off $(GO) vet .

# A short pass of each benchmark workload through bccdbench/run.sh. It
# fails unless the result line reports "correct": true with 0 failed, so a
# change in response bytes cannot silently break the benchmark's
# correctness gate.
bench-smoke:
	@for w in hot ingest; do \
		line=$$(bash bccdbench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1); \
		echo "bench-smoke $$w: $$line" | cut -c 1-200; \
		case "$$line" in \
		'{"correct":true,'*'"failed":0,'*) ;; \
		*) echo "bench-smoke: $$w is not correct with 0 failed" >&2; exit 1 ;; \
		esac; \
	done

# Static analysis for the obs package beyond go vet. staticcheck is optional:
# the target degrades to a notice when the tool isn't installed.
lint-obs:
	$(GO) vet ./internal/obs
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./internal/obs; \
	else \
		echo "lint-obs: staticcheck not installed, skipped"; \
	fi

# The gate run before merging: static checks (the benchmark driver
# included), race-clean tests, the fault-isolation suite, the
# observability suite, the durability suite
# (decoder fuzzing, race-enabled service tests, crash harness), the shard
# suite (differential harness + codec fuzzing), the incremental suite
# (mutation differential harness + delta fuzzing), the replication suite
# (standby differential harness + multi-process node-kill failover), the
# self-healing suite (scrubber + bit-rot chaos harness + repl frame
# fuzzing), the adaptive-planner suite (golden decision table + differential
# harness + feature fuzzing), a short correctness-gated pass of the bccd
# benchmark, and a benchmark snapshot.
ci: vet vet-bench bench-smoke lint-obs race test-fastbcc test-faults test-obs fuzz-durable test-shard fuzz-shard test-incr fuzz-incr race-service test-crash test-repl test-failover test-scrub fuzz-repl test-plan fuzz-plan bench-json

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
