package engine

import (
	"context"
	"testing"
)

// BenchmarkCostBatch times the what-if batch-costing path on a cold
// cache per iteration, so it measures planning throughput.
func BenchmarkCostBatch(b *testing.B) {
	items, cfg := batchFixture(64)
	e := New(testSchema())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ClearCache()
		if _, err := e.CostBatch(context.Background(), items, cfg, ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostBatchWarm times the all-hits path: sharded read-locked
// lookups plus the in-order weighted reduce.
func BenchmarkCostBatchWarm(b *testing.B) {
	items, cfg := batchFixture(64)
	e := New(testSchema())
	if _, err := e.CostBatch(context.Background(), items, cfg, ModeEstimated); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CostBatch(context.Background(), items, cfg, ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
}
