#!/bin/sh
# Full verification gate: gofmt, vet, build, run the whole test suite under the
# race detector, smoke the fuzz targets, and enforce a coverage floor on the
# PHY and learner packages. The parallel execution engine (internal/parallel
# and its users in internal/experiments) writes results into shared slices
# from worker goroutines, so the -race run is the load-bearing part of this
# check.
set -eux

cd "$(dirname "$0")/.."

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
# Code size is reported, not gated: the ROADMAP tracks it across changes.
echo "non-test Go lines outside perfbench/: $(scripts/loc.sh)"

# A -run alternative that names no test turns its line below into a silent
# no-op once the test is deleted or renamed. Every alternative of every -run
# pattern in this script (but the benchmarks' and fuzz targets' '^$') must
# match at least one test of its packages.
awk -v q="'" '$1 == "go" && $2 == "test" && index($0, "-run " q) {
	split($0, part, q)
	if (part[2] == "^$") next
	n = split(part[2], alt, "|")
	for (i = 1; i <= n; i++) print alt[i], part[3]
}' scripts/check.sh | while read -r alt pkgs; do
	go test -list "$alt" $pkgs | grep -Eq '^(Test|Example|Fuzz)' ||
		{ echo "check.sh: -run alternative $alt matches no test in $pkgs"; exit 1; }
done
go test -race ./...

# The benchmark harness is its own module (it imports ctjam through a
# replace directive), so ./... above never compiles it. Vet and test it here
# so a change to an API it calls fails the gate, not the next benchmark run.
(cd perfbench && go vet ./... && go test ./...)

# The batched inference engine's contracts are concurrency-sensitive: one
# immutable snapshot serves many goroutines, and ctjam-serve hot-swaps it
# under load. Run those suites under -race explicitly (and with -count=1 so
# they never come from the build cache). The serve suite carries the
# end-to-end batching-equivalence proof: batching on/off must return
# identical actions under concurrent load and hot-reload churn.
go test -race -count=1 -run 'TestBatchSerialEquivalence|TestBatchValidation' ./internal/policy
go test -race -count=1 -run 'TestSnapshot' ./internal/rl
go test -race -count=1 ./internal/serve
go test -race -count=1 ./cmd/ctjam-serve

# The exact engine must give the same bits on every machine, including ones
# without AVX: run the inference packages with the asm kernels compiled out
# (noasm) so the pure-Go fallbacks stay proven, and the committed-checkpoint
# suite under -race since one snapshot serves many goroutines. The rng and
# iot packages ride along so the portable seeding loop, not the AVX2 kernel,
# reproduces the standard stream and every field golden.
go test -count=1 -tags noasm ./internal/nn ./internal/rl ./internal/policy ./internal/rng ./internal/iot
# Training runs on the same GEMM as inference; with the asm compiled out the
# portable kernel must train a network with the same SHA-256.
go test -count=1 -tags noasm -run '^TestTrainDQNWeightsDigest$' .
go test -race -count=1 -run 'TestEngine' ./internal/policy

# Those bits also hold on machines with fused multiply-add only if gc never
# fuses a product into an add in nn or rl (an FMA rounds once where the
# portable loops round twice). A float64(...) conversion around a product
# forbids the fusion; fail if the arm64 assembly of either package still holds
# a fused op (an empty or failed listing, with no FMULD, fails too).
fused=$(GOARCH=arm64 go build -gcflags=-S ./internal/nn ./internal/rl 2>&1 |
	awk '/FMULD/ { listed = 1 } /[[:space:]]FN?M(ADD|SUB)D[[:space:]]/ { print } END { if (!listed) print "no arm64 listing" }')
test -z "$fused"

# A legacy-SSE instruction (one without a VEX prefix, such as MOVQ AX, X0)
# that runs while the upper halves of the vector registers are dirty costs an
# SSE/AVX state transition on every call; the AVX2 seed kernel once lost
# ~190 ns per seeding that way. Fail if any amd64 assembly function that uses
# a Y or Z register also holds a non-VEX instruction with an X-register
# operand (the CPUID probes touch no vector register, so they pass).
sse=$(find . -name '*_amd64.s' -not -path './.bench_build/*' | sort | xargs awk '
	function flush(   i) {
		if (wide) for (i = 1; i <= n; i++) print legacy[i]
		wide = 0; n = 0
	}
	FNR == 1 || /^TEXT/ { flush() }
	{
		code = $0
		sub(/\/\/.*/, "", code)
		if (code !~ /^[ \t]+[A-Z]/) next
		if (code ~ /[^A-Za-z0-9_][YZ]([0-9]|[12][0-9]|3[01])([^A-Za-z0-9_]|$)/) wide = 1
		ops = code
		sub(/^[ \t]+[A-Z0-9_.]+/, "", ops)
		if (code !~ /^[ \t]+V/ && ops ~ /(^|[^A-Za-z0-9_])X([0-9]|[12][0-9]|3[01])([^A-Za-z0-9_]|$)/)
			legacy[++n] = FILENAME ":" FNR ": " code
	}
	END { flush() }
')
test -z "$sse"

# The sweep-point cache shares memoized counters and trained schemes across
# concurrent experiment runs, and field runs claim scheme entries from it
# concurrently; its claim/wait protocol must stay race-clean and
# bit-identical to uncached serial runs.
go test -race -count=1 -run 'TestSweepCache|TestBatchedSerialEvalCounters|TestFieldRLSharesTableIScheme' ./internal/experiments

# Distributed execution must stay bit-identical to a single-process run —
# static shards at several counts, the coordinator/worker HTTP protocol,
# and worker-loss retry all reproduce the same experiment traces — and the
# coordinator's lease ledger must stay race-clean under concurrent workers.
go test -race -count=1 -run 'TestDistributed' ./internal/dist

# The sharded field engine writes per-cluster utilizations into an
# index-addressed slice from worker goroutines and hands agents and pooled
# clusters (each with two in-place-reseeded generators) between workers
# through a locked free list, and clusters move between concurrent engines;
# its bit-identical-at-any-worker-count guarantee and its per-cluster memory
# bound must stay race-clean.
go test -race -count=1 -run 'TestFieldShardEquivalence|TestEnginePooledClustersCarryNothing|TestEngineAgentReuseCarriesNothing|TestEngineAgentPerWorker|TestEngineRunMemory|TestEngineSingleClusterMatchesSimulator|TestFixedDataMatchesNaive' ./internal/iot

# Benchmark smoke: one iteration each of the Go micro-benchmarks that
# CHANGES.md cites as per-layer evidence (sweep cache, batched policy
# engine, lockstep slot loop, DQN update, dense train step, batcher
# admission, decide body, field engine, seeding tiers), so they stay runnable. End-to-end numbers come from perfbench, not
# from here.
go test -run '^$' -bench '^BenchmarkAllSweeps$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkPolicyBatch$' -benchtime 1x ./internal/policy
go test -run '^$' -bench '^BenchmarkSchemeRunSlot$' -benchtime 1x ./internal/policy
go test -run '^$' -bench '^BenchmarkDQNTrainStep$' -benchtime 1x ./internal/rl
go test -run '^$' -bench '^BenchmarkTrainStepBatch64$' -benchtime 1x ./internal/nn
go test -run '^$' -bench '^BenchmarkBatcherDecide$' -benchtime 1x ./internal/serve
go test -run '^$' -bench '^BenchmarkDecideBody$' -benchtime 1x ./internal/serve
go test -run '^$' -bench '^BenchmarkFieldEngine/nodes-1e3$' -benchtime 1x ./internal/iot
go test -run '^$' -bench '^BenchmarkFastSeed$' -benchtime 1x ./internal/rng

# Fuzz smoke: a few seconds per target catches shallow panics and keeps the
# committed corpora replaying. Override the budget with CHECK_FUZZTIME
# (e.g. CHECK_FUZZTIME=30s for a longer local campaign); full-length runs
# stay manual:
#   go test -run '^$' -fuzz FuzzZigbeeFrameDecode -fuzztime 5m ./internal/phy/zigbee
FUZZTIME="${CHECK_FUZZTIME:-5s}"
go test -run '^$' -fuzz FuzzZigbeeFrameDecode -fuzztime "$FUZZTIME" ./internal/phy/zigbee
go test -run '^$' -fuzz FuzzWifiPPDUDecode -fuzztime "$FUZZTIME" ./internal/phy/wifi
go test -run '^$' -fuzz FuzzCheckpointLoad -fuzztime "$FUZZTIME" ./internal/rl
go test -run '^$' -fuzz FuzzForwardBatchEngines -fuzztime "$FUZZTIME" ./internal/nn
go test -run '^$' -fuzz FuzzNetworkLoad -fuzztime "$FUZZTIME" ./internal/nn
go test -run '^$' -fuzz FuzzSchemeRoundTrip -fuzztime "$FUZZTIME" ./internal/core
go test -run '^$' -fuzz FuzzTrainingLoad -fuzztime "$FUZZTIME" ./internal/core
go test -run '^$' -fuzz FuzzJammerSpec -fuzztime "$FUZZTIME" ./internal/jammer
go test -run '^$' -fuzz FuzzFaultParse -fuzztime "$FUZZTIME" ./internal/fault
go test -run '^$' -fuzz FuzzDecideBody -fuzztime "$FUZZTIME" ./internal/serve
go test -run '^$' -fuzz FuzzFastSeed -fuzztime "$FUZZTIME" ./internal/rng

# Coverage floor: the signal-processing and learner packages back every
# experiment, and the experiment harness and policy engine back every
# reported number, so they must all stay well tested.
go test -cover ./internal/phy/... ./internal/rl ./internal/experiments ./internal/policy | awk '
	{ print }
	/^(FAIL|---)/ { bad = 1 }
	/coverage:/ {
		for (i = 1; i < NF; i++) if ($i == "coverage:") {
			p = $(i + 1)
			sub(/%/, "", p)
			if (p + 0 < 70) bad = 1
		}
	}
	END { if (bad) { print "coverage gate failed (test failure or below 70% floor)"; exit 1 } }
'

# Higher floors for the inference hot path: internal/nn carries the asm
# kernels and their equivalence harness (>=80%), internal/serve the
# production decision surface (>=75%), internal/iot the sharded field
# engine whose determinism guarantees every committed field number (>=75%),
# internal/jammer the adversary zoo whose strategies feed every cache key and
# golden trace (>=85%), internal/rng the stdlib-identical generators every
# seeded stream draws from (>=85%), and internal/dist the
# coordinator/worker/spool paths every distributed run completes through
# (>=80%).
go test -cover ./internal/nn ./internal/serve ./internal/iot ./internal/jammer ./internal/rng ./internal/dist | awk '
	{ print }
	/^(FAIL|---)/ { bad = 1 }
	/coverage:/ {
		floor = 75
		if ($2 ~ /internal\/(nn|dist)$/) floor = 80
		if ($2 ~ /internal\/(jammer|rng)$/) floor = 85
		for (i = 1; i < NF; i++) if ($i == "coverage:") {
			p = $(i + 1)
			sub(/%/, "", p)
			if (p + 0 < floor) bad = 1
		}
	}
	END { if (bad) { print "coverage gate failed (nn/dist below 80%, jammer/rng below 85%, serve/iot below 75%)"; exit 1 } }
'
