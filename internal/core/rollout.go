package core

import (
	"runtime"

	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/obs"
)

// mRollouts counts completed rollouts (decode and reward both
// succeeded).
var mRollouts = obs.Default().Counter("trap_rl_rollouts_total")

// rollout is one sampled trajectory's contribution, produced by a worker
// and consumed by the in-order reduce.
type rollout struct {
	g     *nn.Graph // the trajectory's private tape (nil: worker never ran)
	steps []DecStep
	r     float64
	ok    bool // decode and reward both succeeded
}

// trajSeed derives the deterministic RNG seed of one sampled trajectory
// from (epoch seed, workload index, trajectory index) with a
// splitmix64-style mix, so every trajectory owns an independent random
// stream regardless of which worker runs it or in what order.
func trajSeed(epochSeed, workload, b int64) int64 {
	z := uint64(epochSeed) ^ uint64(workload)*0x9E3779B97F4A7C15 ^ uint64(b)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// rolloutWorkers resolves the rollout pool size: RolloutWorkers when
// positive, GOMAXPROCS otherwise.
func (f *Framework) rolloutWorkers() int {
	if f.RolloutWorkers > 0 {
		return f.RolloutWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// rollGraphs returns the framework's persistent trajectory graphs,
// grown to n entries. Unlike a sync.Pool — whose contents every GC
// cycle discards, re-triggering arena warm-up allocations mid-training
// — these graphs live as long as the framework, so steady-state
// training reuses the same arena memory for every epoch and the
// per-step allocation count is flat in the worker count. Callers must
// hold f.mu; during a rollout fan-out, worker b exclusively owns
// rollGraphs(batch)[b].
func (f *Framework) rollGraphs(n int) []*nn.Graph {
	for len(f.rollG) < n {
		f.rollG = append(f.rollG, nn.NewGraph(true))
	}
	return f.rollG[:n]
}
