# Verify flow: `make check` is what CI (and a pre-commit run) should
# execute — vet, build, the full test suite, and the race detector over
# the packages with real concurrency (engine locking, corpus loader,
# metrics counters).

GO ?= go

.PHONY: build test vet race race-vec race-mvcc check crash-matrix bench bench-parallel bench-json stats-demo serve-smoke explain-golden bench-streaming-smoke bench-vec-smoke bench-cbo-smoke flake

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/engine/... ./internal/shred/... ./internal/obs/... \
		./internal/pathquery/... ./internal/serve/...

# MVCC snapshot-read subset under the race detector: writers and
# checkpoints committing under open cursors, snapshot stability under
# generation churn with concurrent vacuum, concurrent Close/Next, and
# the serve guard that unpins abandoned cursors on client disconnect.
MVCC_TESTS = TestSnapshot|TestWriterAndCheckpoint|TestCheckpointWithOpenCursor|TestPin|TestConcurrentClose|TestCompact|TestVacuum|TestServingMixStress

race-mvcc:
	$(GO) test -race -run '$(MVCC_TESTS)' ./internal/engine/
	$(GO) test -race -run 'TestDisconnectReleasesCursorPin' ./internal/serve/

# Batch-operator subset under the race detector: vectorized scans
# racing writers that invalidate the columnar sidecar, plus the
# dictionary codec tests. Redundant with `race` but fast enough to run
# alone while iterating on the executor.
race-vec:
	$(GO) test -race -run 'TestVec|TestDict' ./internal/engine/

# Fault-injection recovery matrix: kill the durable engine at every
# byte offset and every fsync boundary of a scripted workload, and at
# every fsync boundary of a three-document loader sequence (plus the
# WAL/snapshot corruption sweeps) and require exact prefix recovery,
# under the race detector.
crash-matrix:
	$(GO) test -race -run 'TestCrash|TestDurable|TestWALReplay|TestSnapshotEvery|FuzzWALReplay' ./internal/engine/
	$(GO) test -race ./internal/faultfs/

check: vet build test race race-vec race-mvcc crash-matrix flake explain-golden bench-streaming-smoke bench-vec-smoke bench-cbo-smoke serve-smoke

# Flake gate: the serve, obs and pathquery suites, and the race-mvcc
# engine subset, twenty times over in shuffled order under the race
# detector, so timing-dependent tests (drain with idle connections,
# trace recording racing the response, union cursors closed mid-stream,
# writers and checkpoints racing open cursors) stay fixed.
flake:
	$(GO) test -race -count=20 -shuffle=on ./internal/serve/ ./internal/obs/ ./internal/pathquery/
	$(GO) test -race -count=20 -shuffle=on -run '$(MVCC_TESTS)' ./internal/engine/

# Golden physical-plan tests: the executed EXPLAIN tree for the
# planner's main shapes must match testdata/explain/*.golden
# byte-for-byte (regenerate with -update after intentional changes).
explain-golden:
	$(GO) test -run 'TestExplainGoldenPlans' -v ./internal/engine/

# One short iteration of the streaming-limit benchmark: proves the
# LIMIT path still short-circuits (the run fails outright if the
# iterator contract breaks) without paying full benchmark time.
bench-streaming-smoke:
	$(GO) test -run XXX -bench BenchmarkStreamingLimit -benchtime 1x ./internal/engine/

# One iteration of the vectorized-aggregate benchmark: each iteration
# re-checks the batched result against the row-at-a-time answer, so
# this fails outright if the vectorized path diverges.
bench-vec-smoke:
	$(GO) test -run XXX -bench BenchmarkVecAggregate -benchtime 1x ./internal/engine/

# Cost-based-optimizer smoke: the skewed-chain test proves the planner
# leaves the written join order for a cheaper one with a small hash
# build side (and that both orders agree on the rows), then one
# iteration of the chain benchmark re-checks the count joined in
# written order and in the planner's order.
bench-cbo-smoke:
	$(GO) test -run TestCBOPicksCheaperOrder -bench BenchmarkCBOJoinChain -benchtime 1x ./internal/engine/

# Serving smoke test: boot xmlserve on the bibliography testdata, run a
# scripted curl mix over every endpoint (including saturation shedding
# and an in-flight request across SIGTERM), and fail on any unexpected
# status. Proves graceful drain end to end.
serve-smoke:
	./scripts/serve-smoke.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf trajectory: re-run the E9b streaming benchmark
# and the E14 experiment, writing its timings to BENCH_E14.json for
# cross-PR diffing. Join-order timings come from
# `go test -bench BenchmarkCBOJoinChain ./internal/engine/`.
bench-json:
	$(GO) test -run XXX -bench BenchmarkStreamingLimit -benchtime 1x ./internal/engine/
	$(GO) run ./cmd/xmlbench -exp e14 -json BENCH_E14.json

# Regenerate the E5b parallel-load numbers (EXPERIMENTS.md).
bench-parallel:
	$(GO) test -run XXX -bench=ParallelLoad -benchtime=5x .
	$(GO) run ./cmd/xmlbench -exp e5b

# Observability demo: load the testdata corpus with metrics attached,
# then run the EXPLAIN plan-stats experiment with the -stats report.
stats-demo:
	$(GO) run ./cmd/xmlshred -dtd testdata/bib.dtd -stats \
		testdata/book.xml testdata/article.xml
	$(GO) run ./cmd/xmlbench -exp e6b -stats
