package telemetry

import (
	"context"
	"testing"
)

// BenchmarkTelemetryDisabled measures the uninstrumented-context path —
// the price every hot loop pays when telemetry is off. ci.sh runs this
// with -benchtime=1x as a harness-bit-rot check; the hard zero-alloc
// assertion lives in TestAppendZeroAlloc.
func BenchmarkTelemetryDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromContext(ctx).Series("rl_loss").Append(int64(i), 1.5)
	}
}

// BenchmarkTelemetryAppend measures the enabled steady-state append,
// including the FromContext lookup and sharded series resolution.
func BenchmarkTelemetryAppend(b *testing.B) {
	sc := NewScope()
	ctx := NewContext(context.Background(), sc)
	// Fill the ring to its capacity first, so every timed append is a
	// steady-state one.
	for i := 0; i < seriesCapacity; i++ {
		FromContext(ctx).Series("rl_loss").Append(int64(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromContext(ctx).Series("rl_loss").Append(int64(seriesCapacity+i), 1.5)
	}
}

// BenchmarkTelemetrySnapshot measures the read side the HTTP telemetry
// endpoint pays per scrape.
func BenchmarkTelemetrySnapshot(b *testing.B) {
	sc := newScope(256, 16)
	for s := 0; s < 8; s++ {
		ser := sc.Series(string(rune('a' + s)))
		for i := 1; i <= 1000; i++ {
			ser.Append(int64(i), float64(i))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := sc.Snapshot(); len(snap) != 8 {
			b.Fatal("bad snapshot")
		}
	}
}
