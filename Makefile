GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt purego cross fuzz fuzz-listed chaos chaos-repl chaos-elect chaos-router stress crash replay-e2e recall-gate eval-golden bench-smoke check loc bench bench-record bench-gate bench-pairs bench-all paper-scale traffic

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every test runs in exactly one target of `check`: the named suites
# below own the tests with these name prefixes (each in its own packages,
# under -race with -count=1), and `race` runs everything else. The
# recall sweep and the evaluation golden are pure number crunching
# (minutes under the detector, starving the latency-asserting suites
# that run beside them); recall-gate and eval-golden run them
# uninstrumented.
OWNED = RecallGateAtScale|EvalGolden|Chaos|ReplChaos|ElectChaos|RouterChaos|Overload|AccountingIdentityUnderStress|Crash|ReplayE2E

race:
	$(GO) test -race -skip '^Test($(OWNED))' ./...

vet:
	$(GO) vet ./...

# The distance kernels of internal/linalg and the forest walk of
# internal/ml/rf have an assembly backend on amd64. `purego` runs the
# packages built on them with the Go reference in its place (the same
# golden hashes must come out, and the same models at every core
# count), and `cross` builds everything for an architecture that has
# only the reference and vets both packages there, and the IVF build on
# top of linalg's k-means filter, so no fallback can rot unnoticed.
purego:
	$(GO) test -tags purego ./internal/linalg ./internal/ml/...
	$(GO) test -tags purego -run '^TestModelsIndependentOfCores$$' ./internal/simulate

cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/linalg ./internal/ml/rf ./internal/ml/ivf

# gofmt -l prints offending files; fail if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fault-injection suite: replays a deployed core.Framework — the served
# degraded path: a failed Training Workflow keeps the published model,
# LoadLatest restores it after a mid-replay crash — against a seeded
# failing fetch.Backend stub (internal/simulate/chaos_test.go) with no
# retry layer in between, and checks the timeline's degraded-mode
# account against the outcomes the stub recorded, under the race
# detector.
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/simulate

# Short smoke runs of every fuzz target (go allows one -fuzz pattern
# per invocation, so one line each). fuzz-listed fails first when a
# `func Fuzz…` under internal/ has no `$(GO) test` recipe line here.
fuzz: fuzz-listed
	$(GO) test -run=^$$ -fuzz=^FuzzTokenize$$ -fuzztime=$(FUZZTIME) ./internal/encode
	$(GO) test -run=^$$ -fuzz=^FuzzEmbed$$ -fuzztime=$(FUZZTIME) ./internal/encode
	$(GO) test -run=^$$ -fuzz=^FuzzEmbedMatchesReference$$ -fuzztime=$(FUZZTIME) ./internal/encode
	$(GO) test -run=^$$ -fuzz=^FuzzCacheRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/encode
	$(GO) test -run=^$$ -fuzz=^FuzzReadJSONL$$ -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run=^$$ -fuzz=^FuzzTimeoutHeader$$ -fuzztime=$(FUZZTIME) ./internal/admission
	$(GO) test -run=^$$ -fuzz=^FuzzWALFrame$$ -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run=^$$ -fuzz=^FuzzCursor$$ -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -run=^$$ -fuzz=^FuzzIndexModel$$ -fuzztime=$(FUZZTIME) ./internal/ml/knn
	$(GO) test -run=^$$ -fuzz=^FuzzTrainAliasedMatchesCopied$$ -fuzztime=$(FUZZTIME) ./internal/ml/knn
	$(GO) test -run=^$$ -fuzz=^FuzzWriteToMatchesMarshalBinary$$ -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run=^$$ -fuzz=^FuzzForestModel$$ -fuzztime=$(FUZZTIME) ./internal/ml/rf
	$(GO) test -run=^$$ -fuzz=^FuzzPredictMatchesReference$$ -fuzztime=$(FUZZTIME) ./internal/ml/rf
	$(GO) test -run=^$$ -fuzz=^FuzzTrainMatchesReference$$ -fuzztime=$(FUZZTIME) ./internal/ml/rf
	$(GO) test -run=^$$ -fuzz=^FuzzUnmarshalArray$$ -fuzztime=$(FUZZTIME) ./internal/job
	$(GO) test -run=^$$ -fuzz=^FuzzUnmarshalJob$$ -fuzztime=$(FUZZTIME) ./internal/job
	$(GO) test -run=^$$ -fuzz=^FuzzUnmarshalArrayParts$$ -fuzztime=$(FUZZTIME) ./internal/job
	$(GO) test -run=^$$ -fuzz=^FuzzAppendJSON$$ -fuzztime=$(FUZZTIME) ./internal/job
	$(GO) test -run=^$$ -fuzz=^FuzzAppendPrediction$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=^FuzzSqDistInt8$$ -fuzztime=$(FUZZTIME) ./internal/linalg
	$(GO) test -run=^$$ -fuzz=^FuzzDotInt8Rows$$ -fuzztime=$(FUZZTIME) ./internal/linalg
	$(GO) test -run=^$$ -fuzz=^FuzzSqEuclidean$$ -fuzztime=$(FUZZTIME) ./internal/linalg
	$(GO) test -run=^$$ -fuzz=^FuzzSqEuclideanRows$$ -fuzztime=$(FUZZTIME) ./internal/linalg
	$(GO) test -run=^$$ -fuzz=^FuzzSparseSqDistCols$$ -fuzztime=$(FUZZTIME) ./internal/linalg
	$(GO) test -run=^$$ -fuzz=^FuzzAssignMatchesReference$$ -fuzztime=$(FUZZTIME) ./internal/ml/ivf
	$(GO) test -run=^$$ -fuzz=^FuzzExactTopKMatchesDense$$ -fuzztime=$(FUZZTIME) ./internal/ml/ivf

fuzz-listed:
	@listed=$$(awk '/^fuzz:/ { r = 1; next } r && /^\t/ { if ($$0 ~ /^\t\$$\(GO\) test /) print; next } { r = 0 }' $(firstword $(MAKEFILE_LIST))); \
	missing=$$(grep -rhoE '^func Fuzz[A-Za-z0-9_]+' --include='*_test.go' internal | sed 's/^func //' | sort -u | \
		while read -r f; do printf '%s\n' "$$listed" | grep -qF -- "-fuzz=^$$f"'$$$$ ' || echo "$$f"; done); \
	if [ -n "$$missing" ]; then echo "fuzz targets with no line under fuzz: in the Makefile:"; echo "$$missing"; exit 1; fi

# Replication chaos suite: a crashfs-backed leader is killed at seeded
# byte offsets mid-group-commit, mid-compaction and mid-retrain; the
# follower must keep serving reads throughout, drain the leader's
# durable prefix, and a promotion must surface every acknowledged
# insert on the new leader (and nothing never attempted), under the
# race detector.
chaos-repl:
	$(GO) test -race -count=1 -run '^TestReplChaos' ./internal/repl

# Election chaos suite: three live nodes under seeded heartbeat
# blackholes, wedged leader disks (mid-group-commit / mid-compaction),
# hard kills and asymmetric partitions; asserts at most one node holds
# an ackable lease at any sampled instant, zero acked-write loss across
# every unassisted failover, and bounded time-to-new-leader, under the
# race detector.
chaos-elect:
	$(GO) test -race -count=1 -run '^TestElectChaos' ./internal/election

# Front-door chaos suite: seeded dead-backend + 10×-slow-backend reads
# with zero client-observed errors and a bounded p99, and a leader kill
# mid-writes with at most one hard failure before a probe round
# re-points writes — both under the race detector.
chaos-router:
	$(GO) test -race -count=1 -run '^TestRouterChaos' ./internal/router

# Overload stress: drives the admission controller and the full HTTP
# serving path through a 10x concurrency burst under the race detector
# and checks the shed-accounting identity holds exactly.
stress:
	$(GO) test -race -count=1 -run '^Test(Overload|AccountingIdentityUnderStress)' ./internal/admission ./internal/httpapi

# Crash-consistency suite: seeded kill points at arbitrary byte offsets
# over a fault-injecting filesystem (torn writes, bit flips, lost
# unsynced tails); checks acknowledged inserts survive recovery exactly,
# under the race detector.
crash:
	$(GO) test -race -count=1 -run '^TestCrash' ./internal/wal ./internal/store

# Golden replay equivalence: simulate.Replay driven through the live
# HTTP path of a node that starts empty (batch insert, classify, train)
# must reproduce its own in-process timeline on the same trace — model
# versions and per-day F1 to 3 decimals — and insert every completed
# trace record exactly once.
replay-e2e:
	$(GO) test -race -count=1 -run '^TestReplayE2E' ./internal/simulate

# Recall gate of the IVF index: one exact and one indexed KNN trained on
# identical internal/workload traces at ×1/×10/×100 (≈ 117 K jobs at
# ×100, ≈ 2 s); fails if measured recall@k against the exact top-k
# drops below 0.95 at any scale.
recall-gate:
	$(GO) test -count=1 -run '^TestRecallGateAtScale' ./internal/ml/knn

# Evaluation golden: the F1, job-count and train-size columns of
# `mcbound eval` on its default trace (-scale 0.02 -seed 7; -exp
# baseline, alpha-plus, features, one θ row per mode) must reproduce
# internal/experiments/testdata/eval.golden byte for byte: twelve
# month-long replays of a deployed Framework, ≈ 12 s on the one core the
# test takes.
eval-golden:
	$(GO) test -count=1 -run '^TestEvalGolden' ./internal/experiments

# The benchmark is a nested module (benchmark/go.mod) that the root
# ./... patterns do not descend into; vet and test it here so API drift
# against it fails `make check`.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

check: build vet fmt purego cross race chaos chaos-repl chaos-elect chaos-router stress crash fuzz replay-e2e recall-gate eval-golden bench-smoke

# Non-test Go outside the benchmark module: the number ROADMAP's
# consolidation item is judged by. Go files under testdata/ are test
# fixtures the go tool never builds (internal/arch's planted violations).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# The repo benchmark's three contract workloads (BENCHMARK.json), one
# 25 s run each, untraced; see benchmark/README.md for the output shape.
bench:
	bash benchmark/run.sh --workload qsub_knn_s30 --seed 1 --seconds 25 --trace 0
	bash benchmark/run.sh --workload qsub_rf_routed_s30 --seed 1 --seconds 25 --trace 0
	bash benchmark/run.sh --workload window_rf_s30 --seed 1 --seconds 25 --trace 0

# The regression gate in two steps, on the harness's own flags: record
# the three contract workloads of a checkout into a JSON-lines file
# (appended, environment-stamped), then compare two such files — exit 1
# when an end-to-end metric of HEAD is worse than BASE beyond its bound.
#   make bench-record OUT=/tmp/base.jsonl   (on the base checkout)
#   make bench-record OUT=/tmp/head.jsonl   (on the change)
#   make bench-gate BASE=/tmp/base.jsonl HEAD=/tmp/head.jsonl
bench-record:
	@test -n "$(OUT)" || { echo "usage: make bench-record OUT=<file>"; exit 2; }
	bash benchmark/run.sh --workload qsub_knn_s30 --seed 1 --seconds 25 --trace 0 -out $(OUT)
	bash benchmark/run.sh --workload qsub_rf_routed_s30 --seed 1 --seconds 25 --trace 0 -out $(OUT)
	bash benchmark/run.sh --workload window_rf_s30 --seed 1 --seconds 25 --trace 0 -out $(OUT)

bench-gate:
	@test -n "$(BASE)" -a -n "$(HEAD)" || { echo "usage: make bench-gate BASE=<file> HEAD=<file>"; exit 2; }
	bash benchmark/run.sh -compare $(BASE) $(HEAD)

# The paired run a performance claim rests on (bench-pairs.sh): BASE and
# the working tree, N runs each of one contract workload, alternating
# which side goes first; prints both spreads, the comparison and the
# pair-by-pair table.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=window_rf_s30 [N=10] [SEED=1]
N ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs BASE=<commit> WORKLOAD=<name> [N=10] [SEED=1]"; exit 2; }
	bash bench-pairs.sh $(BASE) $(WORKLOAD) $(N) $(SEED)

bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The traffic check (ROADMAP item 23, traffic.sh): the functions of the
# eight cluster-shell packages that no other package's test reaches,
# marked where a traced 3 s run of each contract workload reaches them,
# each with the reason it stays; then every test that skips on a tier-1
# run. Ungated and outside `check`: a full test run plus three benchmark
# runs, a few minutes; everything it writes stays under .bench_build/.
traffic:
	bash traffic.sh

# The paper's scale (ROADMAP item 17): the deployment replay of each
# model over the scale-1 evaluation trace (≈ 1.6 M jobs generated in
# process; seven β = 1 retrains on α = 30-day windows of ≈ 505 K jobs,
# 2024-02-05 → 02-12), then the baseline evaluation at that scale. Every
# train line carries its fit time, and each run ends with its wall time
# and peak RSS (getrusage). Ungated and outside `check`: about four
# minutes and 2.2 GB at peak on 2 vCPUs.
paper-scale:
	$(GO) build -o .bench_build/mcbound ./cmd/mcbound
	.bench_build/mcbound replay -scale 1 -alpha 30 -model knn
	.bench_build/mcbound replay -scale 1 -alpha 30 -model rf
	.bench_build/mcbound eval -exp baseline -scale 1
