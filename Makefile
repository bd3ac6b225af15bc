GO ?= go

.PHONY: all build vet lint test race short race-short bench bench-smoke bench-test fuzz-smoke trace-smoke run-smoke serve-smoke soak proc-smoke ci clean

all: ci

build:
	$(GO) build ./...

# bench/ is its own module importing this one: vetting it here makes a
# renamed or deleted export it uses fail now, not at benchmark time.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Project-specific type-aware static analysis (internal/lint via
# cmd/imrlint): no sends under locks, paired trace spans, no silently
# dropped transport/DFS errors, seeded determinism in the simulator,
# constant metric/trace names, protocol emit/dispatch exhaustiveness,
# acyclic lock order, threaded contexts in blocking code, and errors.Is
# on sentinels. Fails on any finding; there is no baseline and no
# suppression directive.
lint:
	$(GO) run ./cmd/imrlint ./...

# Full suite, including the chaos tests. Every test target carries an
# explicit -timeout: the leaktest watchdog (internal/leaktest) panics
# with a goroutine dump well before these fire, so the go test deadline
# is the backstop, not the diagnosis.
test:
	$(GO) test -timeout 10m ./...

# Full suite under the race detector (the chaos suite must stay
# race-clean — it exercises concurrent fault injection on purpose).
race:
	$(GO) test -race -timeout 15m ./...

# Quick loop: skips the chaos suite (guarded by testing.Short).
short:
	$(GO) test -short -timeout 5m ./...

# Race-enabled quick loop: the short suite under the race detector, once
# per scheduler width. Task goroutines, TCP connection readers and
# checkpoint writers only run side by side at 2 and above — at 1 (the CI
# box's default) handoffs between them, and the teardown that joins them,
# interleave far less — so races and ordering bugs among them show at 2
# and 4; -count=1 because the test cache does not key on GOMAXPROCS.
race-short:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -race -short -count=1 -timeout 10m ./... || exit 1; done

# Data-plane micro-benchmarks: the kv hot paths with allocation stats
# and the engine-level shuffle/iteration benchmarks. End-to-end numbers
# and regression comparison are bench/run.sh's (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/kv ./internal/core
	$(GO) test -run '^$$' -bench 'Fig0[46]' -benchtime 3x .

# One-iteration benchmark compile-and-run: catches bit-rot in every
# benchmark without paying for steady-state timing. The alloc-budget
# tests then gate the allocation-flat paths: DecodePairsSlab must stay
# within single-digit allocations per 4096-pair chunk and DecodeCols
# within none per column chunk into a warm batch, and a warm Grouper, a
# warm static join and a warm previous-state merge must handle a
# same-sized input with none at all, as must a column reduce's rounds
# placed values-only by the slot map of the layout they share and
# finished as hits; a warm SSSP
# superstep on the boxed loops may allocate only what its user map boxes
# and one box per message sent — no key box, past key 255 too — and on
# the typed loops only the message boxes, whatever changes. In
# the baseline engine a map attempt may allocate only its spill runs and
# a few headers (the headers alone on a warm scratch), a reduce attempt
# the same count whatever its input (fewer on a warm scratch), and the
# jobs of a chain after its largest first one no spill run and no reduce
# scratch at all.
# The registry PageRank's sorted-sum reduce may allocate only its result
# box, and listing one job's directory plus a write and a delete beside
# it must cost under 3x as much among 100 000 unrelated DFS files as
# among 1 000. A task's first chunk buffers start at 64 records and still
# ship BufferThreshold-record chunks, and a small PageRank through an
# idle service may allocate at most 0.6 MB a job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/kv ./internal/graph ./internal/mapreduce ./internal/core ./internal/dfs
	$(GO) test ./internal/kv -run 'TestDecodePairsAllocBudget|TestDecodeColsAllocs|TestGrouperSteadyStateAllocs|TestColGrouperSteadyStateAllocs|TestColPlacementSteadyStateAllocs' -count=1 -timeout 2m
	$(GO) test ./internal/core -run 'TestJoinSteadyStateAllocs|TestSuperstepSteadyStateAllocs|TestScalarSuperstepSteadyStateAllocs|TestFirstBuffersStartSmall' -count=1 -timeout 2m
	$(GO) test ./internal/serve -run 'TestServeJobAllocBytes' -count=1 -timeout 2m
	$(GO) test ./internal/mapreduce -run 'TestMapAttemptAllocs|TestReduceAttemptAllocs|TestChainRecyclesShuffleBuffers' -count=1 -timeout 2m
	$(GO) test ./internal/jobs -run 'TestPageRankReduceAllocsOnlyResult|TestPageRankTypedReduceAllocsNothing' -count=1 -timeout 2m
	$(GO) test ./internal/dfs -run 'TestNamespaceCostIndependentOfUnrelatedFiles' -count=1 -timeout 2m

# The benchmark module's own tests: its workload catalogue against
# BENCHMARK.json, and every workload end to end at toy size. Tier-1's
# go test ./... never reaches them — bench/ is a module of its own.
bench-test:
	cd bench && $(GO) test -count=1 -timeout 5m ./...

# Short fuzzing leg: FuzzNamespaceOps checks random DFS write/rename/
# delete/List sequences against a flat-map reference, FuzzDecodePairs
# holds the record decoder's heap and slab forms to each other and to
# the encoder on arbitrary bytes, and FuzzFrames runs arbitrary bytes
# through a TCP connection's frame reader, which must not panic and must
# allocate in proportion to what it read; FuzzControlMessages feeds them
# to every registered control message's decoder, which must also
# re-encode what it accepts to the same bytes. FuzzDecodeCols does the same
# for the column codec of scalar shuffles and round-trips what it
# decodes; FuzzManifest feeds arbitrary manifest records to Resume, which
# must never resume one that disagrees with the job; FuzzImage opens
# arbitrary bytes as a DFS namenode image, which must fail or list exactly
# the image's files; FuzzChunkFrames runs arbitrary bytes through the
# decoder of every frame core registers — column state and shuffle
# chunks of each value type, boxed included (shuffle keyed and
# values-only), auxiliary output — which must
# not panic, must bound the records by the bytes, and must re-encode what
# it accepts stably; FuzzColPlacement places the chunks of arbitrary
# rounds, keys sent again values-only or not, in any arrival order, by
# the slot map of a prior layout, or none, which must group exactly in
# canonical (map, slot, position) order. Each
# starts from its seed corpus (under the package's testdata/fuzz, or
# added in the test); a failing input is written to testdata/fuzz, ready
# to be re-run by go test and checked in.
fuzz-smoke:
	$(GO) test ./internal/dfs -run '^$$' -fuzz FuzzNamespaceOps -fuzztime 10s
	$(GO) test ./internal/kv -run '^$$' -fuzz FuzzDecodePairs -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzFrames -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzControlMessages -fuzztime 10s
	$(GO) test ./internal/kv -run '^$$' -fuzz FuzzDecodeCols -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzManifest -fuzztime 10s
	$(GO) test ./internal/dfs -run '^$$' -fuzz FuzzImage -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzChunkFrames -fuzztime 10s
	$(GO) test ./internal/kv -run '^$$' -fuzz FuzzColPlacement -fuzztime 10s

# Traced quick run: records a real SSSP job, exports Chrome trace JSON,
# validates it parses, and prints the factor decomposition.
trace-smoke:
	$(GO) run ./cmd/imrbench -trace /tmp/imr-trace.json

# Kill-and-resume in a binary: imrrun -resume cancels its own 2 000-node
# PageRank run halfway with the cause core.ErrKilled (from OnIteration),
# then resumes it from the newest durable checkpoint. The run must
# report the kill and exit 0.
run-smoke:
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d ./cmd/imrgen ./cmd/imrrun && \
	$$d/imrgen -kind pagerank -nodes 2000 -out $$d/g.txt && \
	{ $$d/imrrun -graph $$d/g.txt -resume > $$d/out.txt; s=$$?; cat $$d/out.txt; test $$s -eq 0; } && \
	grep -q 'run killed at iteration' $$d/out.txt

# Multi-tenant job-service smoke: the serve test suite (fair-share
# scheduling, quotas, cancel semantics, bit-identical concurrent
# outputs). Its load behaviour is the serve-open workload of
# bench/run.sh.
serve-smoke:
	$(GO) test ./internal/serve -count=1 -timeout 5m

# Seeded chaos soak: deterministic fault schedules (worker crash, stall,
# link partition, DFS node loss, full engine kill + resume) against
# SSSP/PageRank, asserting bit-identical output vs the fault-free run.
# SOAK_ITERS scales the schedule length; failures print the reproducing
# seed. The -timeout sits far above the soak tests' own 5-minute
# leaktest watchdogs, which fire first with a goroutine dump.
SOAK_ITERS ?= 12
soak:
	$(GO) test ./internal/experiments -run 'TestSoak' -count=1 -v -timeout 15m -soak.iters=$(SOAK_ITERS)

# Real-binary cluster smoke: builds imrmaster/imrworker, runs
# 1-master/3-worker PageRank and SSSP over loopback TCP with a kill -9
# schedule (worker SIGKILL mid-iteration; master SIGKILL + relaunch
# with -resume), and diffs the canonical output byte-for-byte against
# the in-process engine. Guarded by the procsmoke build tag so the
# ordinary test sweep never forks processes.
proc-smoke:
	$(GO) test -tags procsmoke ./internal/proctest -run TestProc -count=1 -v -timeout 10m

ci: vet lint build race-short bench-smoke bench-test fuzz-smoke trace-smoke run-smoke serve-smoke soak proc-smoke

clean:
	$(GO) clean ./...
