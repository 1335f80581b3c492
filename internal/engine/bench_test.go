package engine

import (
	"context"
	"testing"
)

// BenchmarkCostBatch times the what-if batch-costing path on a cold
// cache per iteration, so it measures planning throughput. It fails
// when a cold batch makes more than 4 allocations per item: a miss is
// priced without building a tree, so only its singleflight call and the
// cache's own growth allocate.
func BenchmarkCostBatch(b *testing.B) {
	items, cfg := batchFixture(64)
	e := New(testSchema())
	batch := func() {
		e.ClearCache()
		if _, err := e.CostBatch(context.Background(), items, cfg, ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, batch); allocs > 4*float64(len(items)) {
		b.Fatalf("a cold %d-item batch makes %.0f allocations, want at most %d", len(items), allocs, 4*len(items))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// BenchmarkCostBatchWarm times the all-hits path: sharded read-locked
// lookups plus the in-order weighted reduce. It fails when a warm batch
// allocates.
func BenchmarkCostBatchWarm(b *testing.B) {
	items, cfg := batchFixture(64)
	e := New(testSchema())
	benchWarm(b, func() (float64, error) {
		return e.CostBatch(context.Background(), items, cfg, ModeEstimated)
	})
}

// BenchmarkRuntimeBatchWarm is BenchmarkCostBatchWarm for the runtime
// stand-in, whose per-query noise factor is memoized on the query.
func BenchmarkRuntimeBatchWarm(b *testing.B) {
	items, cfg := batchFixture(64)
	e := New(testSchema())
	benchWarm(b, func() (float64, error) {
		return e.RuntimeBatch(context.Background(), items, cfg)
	})
}

// benchWarm warms the cache with one batch, fails if a warm batch
// allocates, and times warm batches.
func benchWarm(b *testing.B, batch func() (float64, error)) {
	run := func() {
		if _, err := batch(); err != nil {
			b.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		b.Fatalf("a warm batch makes %.0f allocations, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
