#!/usr/bin/env bash
# CI entry point: formatting, vet, tier-1 build+test, the race detector
# over the whole module, and a fault-injection smoke pass. Every test
# invocation carries a timeout so a wedged cancellation path fails the
# build instead of hanging it. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...
# The scaling gate's file builds only under its tag (see the gate step).
go vet -tags scalinggate ./internal/core

echo "== cross-builds =="
# The directory lock is flock(2) on unix and absent elsewhere: both
# build variants must keep compiling.
GOOS=windows go build ./...
GOOS=darwin go build ./...

echo "== tier-1: build + test =="
go build ./...
go test -timeout 120s ./...

echo "== perfbench: vet + test =="
# perfbench/ is its own module, so the root ./... skips it: build and
# test it here so an internal API change that breaks the benchmark
# fails CI.
(cd perfbench && go vet ./... && go test -count=1 -timeout 300s ./...)

echo "== race detector =="
# The engine package gets an explicit pass first: the sharded plan cache
# (its tree and cost maps, the cost map's key arena) and its
# singleflight, shared by every job, measurement cell and rollout on a
# suite, are the repo's hottest concurrent code and must fail fast and
# loud on a data race.
go test -race -timeout 300s -count=1 ./internal/engine
# The tracer is written to from every pipeline goroutine (rollout pools,
# measurement cells, jobs) while /v1/traces reads it: its own
# explicit race pass keeps that contract loud.
go test -race -timeout 300s -count=1 ./internal/trace
# The job log is appended from every worker while replay/compaction
# rewrites segments, and the admission controller is hit by every
# submit: both are lock-heavy by design and must prove it under -race.
go test -race -timeout 300s -count=1 ./internal/joblog ./internal/admission
# The GEMM kernels carry a bit-identity contract: blocked/fused
# forward and backward must match the naive k-ascending reference
# exactly, on odd shapes and across worker counts, with the race
# detector watching the fan-out. So do the GRU Step and the BiGRU's
# shared encoder pass, against the per-step reference of gruref_test.go.
go test -race -timeout 300s -count=1 \
    -run 'TestGEMM|TestArenaTrimReleasesOneOffPeak|TestGRUStepMatchesReference|TestBiGRUPassMatchesReference' ./internal/nn
# So does the RL advisors' one-pass candidate scorer: its logits and
# every parameter gradient must match the per-candidate Dense chains of
# scoreref_test.go on synthetic steps (special values included), and a
# trained SWIRL's and DQN's Recommend, called from four goroutines at
# once, must return what sequential calls do, with the race detector
# watching the per-call scratch.
go test -race -timeout 300s -count=1 \
    -run 'TestScoreNetMatchesReference|TestRecommendConcurrent' ./internal/advisor
# The GBDT trainer carries one too: the presorted tree builder must grow
# the reference per-node-sort builder's trees bit for bit, on synthetic
# edge cases, on a real suite's utility training set and under a short
# fuzz. The trainer is sequential, so these run without -race.
go test -timeout 300s -count=1 \
    -run 'TestTrainMatchesReference|TestSuiteUtilityMatchesReference' ./internal/gbdt
go test -timeout 300s -run '^$' -fuzz FuzzTrainMatchesReference -fuzztime 15s ./internal/gbdt
# And the planner: plans built over a memoized planning skeleton must be
# the reference planner's bit for bit (generated and perturbed workloads
# on three schemas, both modes, every error), and so must the cost
# path's tree-free pricing and every cached cost and tree, also under
# configurations padded with inert indexes and after the same indexes
# in another order; no inert index may appear in a plan; ClearCache
# must empty the cost map too; a query's skeletons must be keyed by
# engine, dropped by Invalidate and never pin their engine, and racing
# first plans of one query must agree (-race -count=10).
go test -timeout 300s -count=1 \
    -run 'TestPlanMatchesReference|TestPlanErrorsMatchReference|TestInertIndexNeverInPlan|TestClearCacheDropsCosts|TestSkeletonKeyedByEngine|TestQueryMemoInvalidation|TestPlannedQueryDoesNotPinEngine' \
    ./internal/engine
go test -timeout 300s -run '^$' -fuzz FuzzPlanMatchesReference -fuzztime 15s ./internal/engine
go test -race -timeout 300s -count=10 -run 'TestConcurrentSkeletonBuild' ./internal/engine
go test -race -timeout 300s ./...

echo "== parallel scaling gate =="
# The RLTrain parallel-regression gates, under -race: a 4-worker epoch
# must not run slower than a 1-worker epoch, and widening the rollout
# pool must not multiply allocations (the per-worker scratch dividend).
# The wall-clock gate builds only under the scalinggate tag, so it is
# timed here, where no other test binary runs beside it, and not in
# tier-1, where packages run in parallel and another process holding a
# CPU slows every 4-worker fan-out.
go test -race -tags scalinggate -timeout 300s -count=1 \
    -run 'TestRLTrainScalingGate|TestRLTrainAllocsFlatAcrossWorkers' \
    ./internal/core
# The wall-clock gate once more without the race detector, whose
# overhead on every epoch hides a slowdown of the 4-worker path: a 5 ms
# sleep per rollout with more than one worker stretches a raced epoch
# by about 13% but a plain one by about 2x.
go test -tags scalinggate -timeout 300s -count=1 -run 'TestRLTrainScalingGate' ./internal/core

echo "== benchmark smoke =="
# One iteration of every CostBatch and RuntimeBatch benchmark: catches
# bit-rot in the benchmark harness and any pathological slowdown of the
# costing path, and gates its allocations: a warm batch of either kind
# must not allocate, and a cold one may make at most 4 allocations per
# item (the benchmarks fail the build otherwise).
go test -run='^$' -bench='CostBatch|RuntimeBatch' -benchtime=1x -timeout 120s ./internal/engine
# One op of each planner micro-benchmark: a first plan of a fresh query,
# and a plan of an already-planned query under a new configuration.
go test -run='^$' -bench='PlanCold|PlanWarmQuery' -benchtime=1x -timeout 120s ./internal/engine
# One op of each GRU micro-benchmark (a step forward, an encoder pass,
# a backward through a sequence) on a warm graph.
go test -run='^$' -bench='GRU' -benchtime=1x -timeout 120s ./internal/nn
# Allocation-regression smoke: BenchmarkRollout asserts a hard
# allocs-per-decode budget (the tensor arena's dividend) and fails the
# build if a change regresses past it.
go test -run='^$' -bench=Rollout -benchtime=1x -timeout 120s ./internal/core
# Checkpoint allocation gate: one save of a quick-scale TRAP framework
# streams its tensors and Adam moments through one buffered writer, and
# the benchmark fails the build if a save allocates more than 128 KiB
# (a gob-encoded save allocated about 11 MB).
go test -run='^$' -bench=SaveCheckpoint -benchtime=1x -timeout 120s ./internal/core
# One op of the RL advisors' scorer benchmarks: a decision step scored
# on warm scratch without gradients must not allocate (the benchmark
# fails the build otherwise), and a short SWIRL training run.
go test -run='^$' -bench='ScoreCandidates|SWIRLTrain' -benchtime=1x -timeout 120s ./internal/advisor
# One training run of the learned utility model's recipe at both sample
# counts: the GBDT builder is most of every suite's set-up.
go test -run='^$' -bench=Train -benchtime=1x -timeout 120s ./internal/gbdt

echo "== fault-injection smoke =="
# Drive the deterministic fault harness end to end: panic isolation, an
# injected error failing its job (each job runs once), cancellation, a
# canceled job holding its worker until it has stopped, a cancel in the
# last measurement cell ending the job canceled, the job timeout,
# checkpoint/resume by resubmission, and damaged checkpoints: a
# truncated, padded, legacy or mis-shaped file is rejected without
# touching the framework, a corrupt spool file means fresh training,
# and a spool file read mid-save is always a whole checkpoint.
go test -timeout 120s -count=1 \
    -run 'TestJobPanicIsolation|TestJobInjectedErrorFails|TestJobCancelEndpoints|TestCanceledJobHoldsItsWorker|TestCancelInFinalCellEndsCanceled|TestJobTimeout|TestJobCheckpointResume|TestCorruptSpoolTrainsFresh|TestSpoolSaveIsAtomic' \
    ./internal/service
go test -timeout 120s -count=1 \
    -run 'TestCheckpointResumeEquivalence|TestLoadCheckpointRejects|TestRLTrainInjectedTransientError' \
    ./internal/core

echo "== trace endpoint smoke =="
# End-to-end observability check: a real job must yield a retrievable
# trace with a >=4-level span tree; /metrics must serve the Prometheus
# exposition and count every span of a TRAP job's trace in
# trapd_span_seconds, one rl.checkpoint span per RL epoch included,
# while the job's SSE stream carries its epoch,
# telemetry and cell events from the same spans; and per-route request
# counters must be named by the route that matched, so unknown paths
# add at most one series.
go test -timeout 300s -count=1 \
    -run 'TestJobTraceEndToEnd|TestMetricsFormats|TestJobSpanMetrics|TestRouteCountersBounded' \
    ./internal/service

echo "== crash-replay smoke =="
# Durability proof end to end: submit a job with -joblog/-spool armed,
# SIGKILL the process mid-epoch, restart on the same directories, and
# assert the job resumes and finishes bit-identical to an uninterrupted
# run. Plus the cancel/GC interplay: a canceled-then-GC'd job must not
# be resurrected by replay and must leak no goroutines (under -race); a
# job's stream must end only once its terminal record is on disk, and
# the GC must skip a terminal job not yet published, so a drop record
# never precedes the terminal one; a refused submission must leave no
# job behind, listed, counted or replayed; a degraded job log must
# drain the server; one writer per directory: a second server (or
# joblog.Open) on a live directory is refused before any suite is
# built, a failed start releases its workers and locks, and logs from
# releases that also wrote lease records replay; and a job that resumes
# from the checkpoint a running job of its kind spooled, and the job
# that wrote it, both return the kind's warm result.
go test -race -timeout 600s -count=1 \
    -run 'TestCrashReplayResume|TestJobLogReplayRestores|TestCancelGCNoResurrectionNoLeak|TestStreamEndsAfterTerminalRecord|TestGCSkipsUnpublishedTerminalJob|TestQueueFullAndDrain|TestJobLogDegradedDraining|TestSecondWriterRefused|TestLocksBeforeSuites|TestFailedStartReleasesEverything|TestJobLogReplaySkipsFleetRecords|TestResumeFromRunningSibling' \
    ./internal/service
go test -race -timeout 120s -count=1 -run 'TestOpenLocksDirectory|TestDirLockUnlock' ./internal/joblog

echo "== SSE smoke =="
# Streaming progress: a live job's SSE stream must deliver state/epoch/
# cell/result events in order, survive a mid-stream disconnect, and
# resume from Last-Event-ID without gaps or duplicates; an idle stream
# must carry comment heartbeats.
go test -race -timeout 300s -count=1 \
    -run 'TestSSEStreamAndResume|TestSSEHeartbeat' \
    ./internal/service

echo "== telemetry smoke =="
# The observability surface end to end: a real TRAP assessment must
# yield training/attack series over /v1/jobs/{id}/telemetry (JSON and
# CSV) with monotonic steps and per-epoch SSE telemetry events; the
# training series and each telemetry event must be its epoch spans'
# attributes bit for bit, and the attack series must end at the
# result's pair counts; a job with no epochs and no pairs must list no
# series; a job held in pretraining, RL training and measurement must
# show its job and layer pprof labels on /debug/pprof/goroutine, and
# leave no goroutine labelled once done; and /version must report the
# build provenance.
go test -race -timeout 600s -count=1 \
    -run 'TestJobTelemetryEndToEnd|TestJobTelemetryListsRecordedSeries|TestJobTelemetryMatchesTrace|TestJobProfileLabels|TestVersionEndpoint' \
    ./internal/service

echo "ci: all green"
