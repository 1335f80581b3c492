package core

import (
	"context"
	"runtime"
	"testing"
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
