package core

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// epochAllocs runs one RL epoch at the given rollout pool size and
// returns the heap allocation count it caused (Mallocs delta). The
// framework is pre-warmed by the caller, so pools, arenas and plan
// caches are at steady state.
func epochAllocs(t *testing.T, tf *trainFixture, fw *Framework, workers int) uint64 {
	t.Helper()
	fw.RolloutWorkers = workers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRLTrainAllocsFlatAcrossWorkers is the allocation-scaling gate for
// the per-worker scratch design: widening the rollout pool must not
// multiply allocations. Before per-worker graphs and arenas, every
// worker count allocated the same ~100k objects per epoch because the
// shared size-keyed arena missed on the hot path; a regression back to
// shared or per-call scratch shows up here as allocs growing with the
// pool, so the gate compares 4 workers against 1 directly.
func TestRLTrainAllocsFlatAcrossWorkers(t *testing.T) {
	tf := newTrainFixture(t)
	for _, model := range []string{"GRU", "TRAP", "Seq2Seq"} {
		t.Run(model, func(t *testing.T) {
			fw := tf.buildFW(model, 131)
			fw.Batch = 4
			// Warm at the widest pool so per-worker graphs, arenas and the
			// plan cache exist before measuring.
			fw.RolloutWorkers = 4
			if _, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 2); err != nil {
				t.Fatal(err)
			}
			a1 := epochAllocs(t, tf, fw, 1)
			a4 := epochAllocs(t, tf, fw, 4)
			// Allow 25% slack plus a small constant for goroutine
			// bookkeeping: three extra worker goroutines cost a few objects
			// each, not a multiple of the per-epoch total.
			limit := a1 + a1/4 + 512
			if a4 > limit {
				t.Fatalf("allocs scale with workers: 1 worker => %d, 4 workers => %d (limit %d)", a1, a4, limit)
			}
			t.Logf("epoch allocs: workers=1 %d, workers=4 %d", a1, a4)
		})
	}
}

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
// The timed epochs alternate 1, 4, 1, 4, 1, 4 workers, so contention
// from packages tested in parallel reaches both counts rather than the
// later block alone, and the gate compares each count's fastest, which
// filters GC pauses and scheduler noise.
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
