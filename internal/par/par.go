// Package par provides the repository's one bounded fan-out primitive.
// Both parallel phases — RL trajectory rollouts (internal/core) and
// assessment measurement (internal/assess) — run item functions through
// ForEach and then reduce the indexed results sequentially in index
// order, which is what keeps their floating-point accumulations
// bit-identical across worker counts.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// panicBox carries a recovered panic value from a worker goroutine back
// to the calling goroutine.
type panicBox struct{ v any }

// ForEach runs fn(i) for every i in [0, n). With workers <= 1 it is a
// plain sequential loop; with more it fans out over a bounded pool
// pulling indices from a shared counter. fn must write its result into
// caller-owned indexed storage; ForEach itself only orchestrates.
// Cancellation is honored at item granularity, and when several items
// fail the error of the lowest index is returned, so the error choice is
// deterministic regardless of scheduling. A panic in fn is captured and
// re-raised on the calling goroutine after the pool drains, so
// fault-injected panics keep their synchronous crash semantics instead
// of killing the process from an anonymous worker.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		stop atomic.Bool
		pan  atomic.Pointer[panicBox]
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	worker := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				pan.CompareAndSwap(nil, &panicBox{v: r})
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				stop.Store(true)
				return
			}
			if err := fn(i); err != nil {
				errs[i] = err
				stop.Store(true)
				return
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if p := pan.Load(); p != nil {
		panic(p.v)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
