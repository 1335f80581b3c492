//go:build scalinggate

// The wall-clock scaling gate runs only where no other test binary runs
// beside it: ci.sh's "parallel scaling gate" step sets the scalinggate
// build tag. Under `go test ./...` packages are tested in parallel, and
// a rollout fan-out that waits for a worker another process has
// descheduled slows every 4-worker epoch; that contention comes from
// outside the program and is not what the gate is for.
//
//	go test -race -tags scalinggate -run TestRLTrainScalingGate ./internal/core

package core

import (
	"context"
	"testing"
	"time"
)

// epochSeconds times one epoch at the given pool size.
func epochSeconds(t *testing.T, tf *trainFixture, fw *Framework, workers int) float64 {
	t.Helper()
	fw.RolloutWorkers = workers
	start := time.Now()
	if _, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 1); err != nil {
		t.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// TestRLTrainScalingGate is the parallel-regression gate: a 4-worker
// epoch must not run slower than a 1-worker epoch. On a single-CPU
// machine there is nothing to win, so the gate only rejects genuine
// slowdowns (lock contention, shared scratch, false sharing) with a
// noise margin, rather than demanding a speedup CI hardware cannot
// deliver; measure speedups with BenchmarkRLTrain (go test -bench).
// The timed epochs alternate 1, 4, 1, 4, 1, 4 workers, so background
// load reaches both counts rather than the later block alone, and the
// gate compares each count's fastest, which filters GC pauses and
// scheduler noise.
func TestRLTrainScalingGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	tf := newTrainFixture(t)
	fw := tf.buildFW("GRU", 132)
	fw.Batch = 4
	fw.RolloutWorkers = 4
	if _, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 2); err != nil {
		t.Fatal(err)
	}
	var t1, t4 float64
	for i := 0; i < 3; i++ {
		if d := epochSeconds(t, tf, fw, 1); i == 0 || d < t1 {
			t1 = d
		}
		if d := epochSeconds(t, tf, fw, 4); i == 0 || d < t4 {
			t4 = d
		}
	}
	if t4 > t1*1.25 {
		t.Fatalf("4-worker epoch slower than 1-worker: %.1fms vs %.1fms", t4*1e3, t1*1e3)
	}
	t.Logf("epoch wall-clock: workers=1 %.1fms, workers=4 %.1fms", t1*1e3, t4*1e3)
}
