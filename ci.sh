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
# and its singleflight, shared by every job, measurement cell and
# rollout on a suite, are the repo's hottest concurrent code and must
# fail fast and loud on a data race.
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
# The GBDT trainer carries one too: the presorted tree builder must grow
# the reference per-node-sort builder's trees bit for bit, on synthetic
# edge cases, on a real suite's utility training set and under a short
# fuzz. The trainer is sequential, so these run without -race.
go test -timeout 300s -count=1 \
    -run 'TestTrainMatchesReference|TestSuiteUtilityMatchesReference' ./internal/gbdt
go test -timeout 300s -run '^$' -fuzz FuzzTrainMatchesReference -fuzztime 15s ./internal/gbdt
# And the planner: plans built over a memoized planning skeleton must be
# the reference planner's bit for bit (generated and perturbed workloads
# on three schemas, both modes, every error), a query's skeletons must
# be keyed by engine, dropped by Invalidate and never pin their engine,
# and racing first plans of one query must agree (-race -count=10).
go test -timeout 300s -count=1 \
    -run 'TestPlanMatchesReference|TestPlanErrorsMatchReference|TestSkeletonKeyedByEngine|TestQueryMemoInvalidation|TestPlannedQueryDoesNotPinEngine' \
    ./internal/engine
go test -timeout 300s -run '^$' -fuzz FuzzPlanMatchesReference -fuzztime 15s ./internal/engine
go test -race -timeout 300s -count=10 -run 'TestConcurrentSkeletonBuild' ./internal/engine
go test -race -timeout 300s ./...

echo "== parallel scaling gate =="
# The RLTrain parallel-regression gates, under -race: a 4-worker epoch
# must not run slower than a 1-worker epoch, and widening the rollout
# pool must not multiply allocations (the per-worker scratch dividend).
go test -race -timeout 300s -count=1 \
    -run 'TestRLTrainScalingGate|TestRLTrainAllocsFlatAcrossWorkers' \
    ./internal/core

echo "== benchmark smoke =="
# One iteration of every CostBatch benchmark: catches bit-rot in the
# benchmark harness and any pathological slowdown of the costing path.
go test -run='^$' -bench=CostBatch -benchtime=1x -timeout 120s ./internal/engine
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
# One training run of the learned utility model's recipe at both sample
# counts: the GBDT builder is most of every suite's set-up.
go test -run='^$' -bench=Train -benchtime=1x -timeout 120s ./internal/gbdt
# Telemetry allocation gates: the disabled path (no scope in context)
# and the enabled steady-state append must both stay zero-alloc, so
# instrumented hot loops cost nothing when nobody is looking.
go test -run='^$' -bench=Telemetry -benchtime=100x -timeout 120s ./internal/telemetry
go test -timeout 120s -count=1 -run 'TestAppendZeroAlloc' ./internal/telemetry

echo "== fault-injection smoke =="
# Drive the deterministic fault harness end to end: panic isolation, an
# injected error failing its job (each job runs once), cancellation, a
# canceled job holding its worker until it has stopped, a cancel in the
# last measurement cell ending the job canceled, the job timeout, and
# checkpoint/resume by resubmission.
go test -timeout 120s -count=1 \
    -run 'TestJobPanicIsolation|TestJobInjectedErrorFails|TestJobCancelEndpoints|TestCanceledJobHoldsItsWorker|TestCancelInFinalCellEndsCanceled|TestJobTimeout|TestJobCheckpointResume' \
    ./internal/service
go test -timeout 120s -count=1 \
    -run 'TestCheckpointResumeEquivalence|TestRLTrainInjectedTransientError' \
    ./internal/core

echo "== trace endpoint smoke =="
# End-to-end observability check: a real job must yield a retrievable
# trace with a >=4-level span tree, /metrics must serve both
# exposition formats, and per-route request counters must be named by
# the route that matched, so unknown paths add at most one series.
go test -timeout 300s -count=1 \
    -run 'TestJobTraceEndToEnd|TestMetricsFormats|TestRouteCountersBounded' \
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
# drain the server; and one writer per directory: a second server (or
# joblog.Open) on a live directory is refused before any suite is
# built, a failed start releases its workers and locks, and logs from
# releases that also wrote lease records replay.
go test -race -timeout 600s -count=1 \
    -run 'TestCrashReplayResume|TestJobLogReplayRestores|TestCancelGCNoResurrectionNoLeak|TestStreamEndsAfterTerminalRecord|TestGCSkipsUnpublishedTerminalJob|TestQueueFullAndDrain|TestJobLogDegradedDraining|TestSecondWriterRefused|TestLocksBeforeSuites|TestFailedStartReleasesEverything|TestJobLogReplaySkipsFleetRecords' \
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
# CSV) with monotonic steps and per-epoch SSE telemetry events; a job
# held in pretraining, RL training and measurement must show its job
# and layer pprof labels on /debug/pprof/goroutine, and leave no
# goroutine labelled once done; and /version must report the build
# provenance.
go test -race -timeout 600s -count=1 \
    -run 'TestJobTelemetryEndToEnd|TestJobProfileLabels|TestVersionEndpoint' \
    ./internal/service

echo "ci: all green"
