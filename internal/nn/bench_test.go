package nn

import (
	"math/rand"
	"testing"
)

// The GRU benchmarks reuse one graph, Reset between iterations as the
// rollout workers do, so they time the kernels on a warm arena rather
// than the arena's first growth.

func BenchmarkGRUStepForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var p Params
	cell := NewGRUCell(&p, "gru", 48, 48, rng)
	x := RandTensor(48, 1, 1, rng)
	g := NewGraph(false)
	h := g.Alloc(48, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.Step(g, x, h)
		g.Reset()
		h = g.Alloc(48, 1)
	}
}

func BenchmarkBiGRUEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var p Params
	enc := NewBiGRU(&p, "enc", 48, 48, rng)
	xs := make([]*Tensor, 40)
	for i := range xs {
		xs[i] = RandTensor(48, 1, 1, rng)
	}
	g := NewGraph(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodePacked(g, xs)
		g.Reset()
	}
}

func BenchmarkBackwardThroughGRUSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var p Params
	cell := NewGRUCell(&p, "gru", 48, 48, rng)
	xs := make([]*Tensor, 30)
	for i := range xs {
		xs[i] = RandTensor(48, 1, 1, rng)
	}
	g := NewGraph(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := g.Alloc(48, 1)
		for _, x := range xs {
			h = cell.Step(g, x, h)
		}
		MSELoss(g.Dot(h, h), 1)
		g.Backward()
		p.ZeroGrads()
		g.Reset()
	}
}

func BenchmarkTransformerLayerForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var p Params
	layer := NewTransformerLayer(&p, "tf", 64, 4, 256, rng)
	xs := make([]*Tensor, 40)
	for i := range xs {
		xs[i] = RandTensor(64, 1, 1, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph(false)
		layer.Apply(g, xs)
	}
}

func BenchmarkAttentionContext(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var p Params
	att := NewAttention(&p, "att", 96, 48, 48, rng)
	states := make([]*Tensor, 40)
	for i := range states {
		states[i] = RandTensor(96, 1, 1, rng)
	}
	s := RandTensor(48, 1, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph(false)
		att.Context(g, states, s)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var p Params
	NewDense(&p, "d1", 128, 128, rng)
	NewDense(&p, "d2", 128, 128, rng)
	for _, t := range p.Tensors() {
		for i := range t.G {
			t.G[i] = rng.Float64()
		}
	}
	opt := NewAdam(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(&p)
	}
}
