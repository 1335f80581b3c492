package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"github.com/trap-repro/trap/internal/nn"
)

// rolloutAllocBudget is the allocation ceiling (allocs per greedy
// workload decode on a warm graph) that the arena work bought; the CI
// bench smoke fails if a regression pushes past it. Before the tensor
// arena and scratch preallocation the same decode loop allocated roughly
// an order of magnitude more.
const rolloutAllocBudget = 4000

// BenchmarkRollout times one trajectory's forward decode — the unit of
// work the RL rollout pool schedules — on a pooled graph whose arena is
// warm, and enforces the allocation budget.
func BenchmarkRollout(b *testing.B) {
	tf := newTrainFixture(b)
	fw := tf.buildFW("GRU", 120)
	w := tf.train[0]
	g := nn.NewGraph(false)
	rng := rand.New(rand.NewSource(1))
	decode := func() {
		for _, it := range w.Items {
			if _, err := Decode(g, fw.Model, fw.Vocab, it.Query, fw.Constraint, fw.Eps, false, rng); err != nil {
				b.Fatal(err)
			}
		}
		g.Reset()
	}
	decode() // warm the arena and the vocabulary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(3, decode); allocs > rolloutAllocBudget {
		b.Fatalf("rollout decode allocates %.0f objects per run, budget %d", allocs, rolloutAllocBudget)
	}
}

// saveAllocBudget is the most one checkpoint save may allocate, in
// bytes: its buffered writer, and nothing per tensor or value. The CI
// bench smoke fails past it; a gob-encoded save of the same framework
// allocated about 11 MB.
const saveAllocBudget = 128 << 10

// BenchmarkSaveCheckpoint streams a quick-scale TRAP framework's
// checkpoint (parameters and Adam moments, after one RL epoch) to
// io.Discard, and enforces the allocation budget.
func BenchmarkSaveCheckpoint(b *testing.B) {
	tf := newTrainFixture(b)
	fw := tf.buildFW("TRAP", 123)
	if _, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 1); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fw.SaveCheckpoint(&buf, 1); err != nil {
		b.Fatal(err)
	}
	save := func() {
		if err := fw.SaveCheckpoint(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save()
	}
	b.StopTimer()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		save()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > saveAllocBudget {
		b.Fatalf("a checkpoint save allocates %d bytes, budget %d", per, saveAllocBudget)
	}
}

// BenchmarkRLTrain times one full RL epoch (greedy baselines, sampled
// rollouts, rewards, backprop, optimizer step) at several rollout pool
// sizes. Parameters are bit-identical across the subbenchmarks; only
// wall-clock should move.
func BenchmarkRLTrain(b *testing.B) {
	tf := newTrainFixture(b)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fw := tf.buildFW("GRU", 121)
				fw.Batch = 4
				fw.RolloutWorkers = workers
				if _, err := fw.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPretrain times the advisor-independent pretraining phase
// (data synthesis + teacher forcing), which reuses one tape graph and
// its arena across pairs.
func BenchmarkPretrain(b *testing.B) {
	tf := newTrainFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fw := tf.buildFW("TRAP", 122)
		if _, err := fw.Pretrain(ctx, tf.f.gen, 4, 1); err != nil {
			b.Fatal(err)
		}
	}
}
