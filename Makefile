GO ?= go

.PHONY: build test vet lint lint-fixtures fuzz-smoke race determinism bench bench-snapshot bench-compare snapshot-smoke metrics-smoke serve-smoke crash-smoke load-smoke cluster-smoke verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package, so
# accidental test-order dependencies fail loudly instead of lurking.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The repo's own determinism + concurrency linter (cmd/hclint): no
# global math/rand, no wall-clock or raw map iteration in deterministic
# packages, no raw float equality, must-check persistence errors — plus
# the server/journal invariant checks (guardedby lock discipline,
# append-then-Sync ack ordering, goroutine/mutex/atomic hygiene; see
# docs/lint-checks.md). Fails on any unsuppressed finding; suppressions
# require a written reason (//hclint:ignore <check> <why>).
lint:
	$(GO) run ./cmd/hclint ./...

# Self-test the linter: rerun every check against its golden fixture
# corpus under internal/lint/testdata/src/ and fail on any drift.
lint-fixtures:
	$(GO) run ./cmd/hclint -fixtures

# Short fuzz pass over every fuzz target (one -fuzz run per target, 5s
# each): checkpoint decode/round-trip, the journal frame decoder, the
# mathx entropy/log-domain kernels, and the dataset CSV/JSON loaders.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzCheckpointRoundTrip$$' -fuzztime 5s ./internal/pipeline/
	$(GO) test -run xxx -fuzz 'FuzzJournalReplay$$' -fuzztime 5s ./internal/journal/
	$(GO) test -run xxx -fuzz 'FuzzLogSumExp$$' -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz 'FuzzEntropy$$' -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz 'FuzzBatchKernels$$' -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz 'FuzzReadAnswersCSV$$' -fuzztime 5s ./internal/dataset/
	$(GO) test -run xxx -fuzz 'FuzzReadDataset$$' -fuzztime 5s ./internal/dataset/

race:
	$(GO) test -race ./...

# Reproducibility regression tests, run twice in one process (-count=2)
# to catch per-process state leaks on top of seed-determinism. The
# server entries cover the multi-session service: concurrent sessions
# must label byte-identically to same-seed single sessions, a drain
# must persist exactly the last emitted checkpoint, and a session
# handed between replicas (gracefully or by kill) must finish
# byte-identically to one that never moved. The cluster entry pins the
# consistent-hash ring: identical routing from any membership ordering.
determinism:
	$(GO) test -count=2 -run 'DeterministicGivenSeed' ./internal/pipeline/ ./internal/experiments/ ./internal/server/ ./internal/taskselect/ ./internal/admit/ ./internal/cluster/

# One pass over every paper benchmark (including the incremental
# selection engine's pick-identity + evals/round check).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Snapshot the current performance numbers (incremental-selection
# evals/round for both loop flavors, the engine round layer's ns/round on
# the batch shape, the Table III wide-task selector step + the Fig2
# end-to-end driver, with -benchmem so
# allocs/op and B/op are captured) as BENCH_next.json.
# BENCH_core.json is the archived pre-hot-path baseline — don't
# overwrite it; diff against it with bench-compare.
bench-snapshot:
	$(GO) test -run xxx -bench 'GreedyIncremental|CostGreedyIncremental|EngineBatch|WideSelect|Fig2Baselines' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/hcsnap -out BENCH_next.json

# Print per-benchmark, per-metric deltas between the archived core
# baseline and the latest bench-snapshot.
bench-compare:
	$(GO) run ./cmd/hcsnap -compare BENCH_core.json BENCH_next.json

# Smoke-test the snapshot pipeline (one cheap benchmark, JSON to stdout)
# without writing the baseline file.
snapshot-smoke:
	$(GO) test -run xxx -bench 'CondEntropyFast' -benchtime 1x . | $(GO) run ./cmd/hcsnap >/dev/null

# End-to-end observability smoke: boot a -sim hcserve, scrape GET
# /metrics while it labels, and assert the round counters advance.
metrics-smoke:
	$(GO) test -run 'RunSimMetricsSmoke' -count=1 ./cmd/hcserve/

# End-to-end graceful-drain smoke: boot hcserve with a checkpoint
# directory, create a second session over /v1, answer one round on each,
# deliver the shutdown signal, and assert both sessions' final
# checkpoints exist and load.
serve-smoke:
	$(GO) test -run 'RunServeSmokeDrain' -count=1 ./cmd/hcserve/

# End-to-end crash-recovery smoke: build the real hcserve binary, run it
# with -journal-dir, SIGKILL it mid-round, restart it on the same
# journal, and assert the finished labels and checkpoint are
# byte-identical to an uninterrupted run.
crash-smoke:
	$(GO) test -run 'RunCrashSmoke' -count=1 ./cmd/hcserve/

# End-to-end streaming-load smoke: build the real hcserve binary, then
# drive it with hcload — several concurrent streaming sessions, Poisson
# fragment admissions over POST /v1/sessions/{id}/tasks racing
# goroutine-per-expert answer loops — and assert every session finishes
# with labels covering the grown task set.
load-smoke:
	$(GO) test -run 'RunLoadSmoke' -count=1 ./cmd/hcload/

# End-to-end replica-mode smoke: boot two real hcserve replicas forming
# a consistent-hash ring, spray hcload's streaming sessions across both
# base URLs (misdirected requests 307 to their owner), then SIGKILL one
# replica mid-session, hand its journal to the survivor via
# POST /v1/cluster/accept, and assert the finished labels and final
# checkpoint are byte-identical to an uninterrupted run — with
# cluster_redirects_total > 0 on the survivor.
cluster-smoke:
	$(GO) test -run 'RunClusterSmoke' -count=1 ./cmd/hcload/

# Gate order: cheap static analysis first (vet, then hclint and its
# fixture self-test), then the fuzz smoke, then the race/determinism
# suite and the e2e smokes.
verify: build vet lint lint-fixtures fuzz-smoke race determinism snapshot-smoke metrics-smoke serve-smoke crash-smoke load-smoke cluster-smoke
