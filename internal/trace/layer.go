package trace

import (
	"context"
	"runtime/pprof"
)

// Layer sets the pprof label layer=name on the calling goroutine, so
// CPU samples taken until restore runs split by layer in any profile
// capture, and goroutines started meanwhile inherit the label. It
// returns ctx carrying the label, to pass on so that a nested Layer
// restores this one, and restore, which puts back the labels of the
// caller's ctx. Each call allocates: label coarse stages (an advisor
// build, a method's training, pretraining, a measurement), never a
// per-epoch, per-rollout or per-cell loop.
func Layer(ctx context.Context, name string) (_ context.Context, restore func()) {
	lctx := pprof.WithLabels(ctx, pprof.Labels("layer", name))
	pprof.SetGoroutineLabels(lctx)
	return lctx, func() { pprof.SetGoroutineLabels(ctx) }
}
