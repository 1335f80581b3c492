package nn

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestArenaReuseAfterReset proves the free-list contract: after Reset,
// an equal-sized Alloc returns the recycled backing memory, zeroed.
func TestArenaReuseAfterReset(t *testing.T) {
	g := NewGraph(true)
	a := g.Alloc(4, 3)
	for i := range a.W {
		a.W[i] = float64(i) + 1
		a.G[i] = -1
	}
	first := &a.W[0]
	g.Reset()
	b := g.Alloc(3, 4) // same element count, different shape
	if &b.W[0] != first {
		t.Fatalf("Alloc after Reset did not recycle the tensor")
	}
	if b.R != 3 || b.C != 4 {
		t.Fatalf("recycled tensor has shape %dx%d, want 3x4", b.R, b.C)
	}
	for i := range b.W {
		if b.W[i] != 0 || b.G[i] != 0 {
			t.Fatalf("recycled tensor not zeroed at %d: W=%v G=%v", i, b.W[i], b.G[i])
		}
	}
	// Different size must not hit the 12-element free list.
	c := g.Alloc(2, 2)
	if &c.W[0] == first {
		t.Fatalf("Alloc of a different size reused mismatched memory")
	}
}

// trainOnce runs a small GRU + attention training loop. When reuse is
// true a single graph is Reset between steps (arena path); otherwise a
// fresh graph is built per step (the pre-arena behavior). Both must
// produce bit-identical parameters.
func trainOnce(t *testing.T, reuse bool) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	p := &Params{}
	emb := NewEmbedding(p, "emb", 12, 6, rng)
	cell := NewGRUCell(p, "gru", 6, 6, rng)
	out := NewDense(p, "out", 6, 5, rng)
	opt := NewAdam(0.01)
	g := NewGraph(true)
	for step := 0; step < 20; step++ {
		if !reuse {
			g = NewGraph(true)
		}
		h := g.Alloc(cell.Hidden, 1)
		for tok := 0; tok < 4; tok++ {
			h = cell.Step(g, emb.Lookup(g, (step+tok)%12), h)
		}
		logits := out.Apply(g, h)
		CrossEntropy(logits, step%5, 1)
		g.Backward()
		p.ClipGrads(5)
		opt.Step(p)
		if reuse {
			g.Reset()
		}
	}
	return p.State()
}

func TestArenaTrainingBitIdentical(t *testing.T) {
	fresh := trainOnce(t, false)
	reused := trainOnce(t, true)
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("arena-reused training diverged from fresh-graph training")
	}
}

// TestAdamZeroGradSkipBitIdentical checks the skip path against an
// optimizer whose moments were force-allocated for every tensor: both
// must move the parameters identically.
func TestAdamZeroGradSkipBitIdentical(t *testing.T) {
	build := func() (*Params, *Tensor, *Tensor) {
		p := &Params{}
		hot := p.Add("hot", NewTensor(3, 2))
		cold := p.Add("cold", NewTensor(4, 4))
		for i := range hot.W {
			hot.W[i] = 0.5 * float64(i+1)
		}
		for i := range cold.W {
			cold.W[i] = -0.25 * float64(i+1)
		}
		return p, hot, cold
	}
	pa, hotA, _ := build()
	pb, hotB, _ := build()

	a := NewAdam(0.01) // skip path: cold tensor never gets moments
	b := NewAdam(0.01)
	// Force-allocate b's moments with zeros.
	for _, tensor := range pb.Tensors() {
		b.m[tensor] = make([]float64, tensor.Size())
		b.v[tensor] = make([]float64, tensor.Size())
	}
	for step := 0; step < 5; step++ {
		for i := range hotA.G {
			hotA.G[i] = float64(step) - 1.5
			hotB.G[i] = float64(step) - 1.5
		}
		a.Step(pa)
		b.Step(pb)
	}
	if !reflect.DeepEqual(pa.State(), pb.State()) {
		t.Fatalf("zero-grad skip produced different parameters than allocated moments")
	}
	if a.m[pa.Tensors()[1]] != nil {
		t.Fatalf("skip path allocated moments for an all-zero-grad tensor")
	}
}

func TestSoftmaxIntoMatchesSoftmax(t *testing.T) {
	logits := Vector(0.3, -1.2, 2.5, 0)
	want := Softmax(logits)
	scratch := make([]float64, 16)
	got := SoftmaxInto(scratch, logits)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("SoftmaxInto = %v, want %v", got, want)
	}
	if &got[0] != &scratch[0] {
		t.Fatalf("SoftmaxInto did not reuse the provided scratch")
	}
}

func TestClipGradsZeroNorm(t *testing.T) {
	p := &Params{}
	w := p.Add("w", NewTensor(2, 2))
	if norm := p.ClipGrads(5); norm != 0 {
		t.Fatalf("ClipGrads on zero grads = %v, want 0", norm)
	}
	for i := range w.G {
		if w.G[i] != 0 {
			t.Fatalf("ClipGrads mutated zero gradients")
		}
	}
}

// TestAttendScratchValidUntilReset pins the documented lifetime of the
// weights slice Attend returns.
func TestAttendScratchValidUntilReset(t *testing.T) {
	g := NewGraph(false)
	scores := []*Tensor{Vector(1), Vector(2), Vector(3)}
	values := []*Tensor{Vector(1, 0), Vector(0, 1), Vector(1, 1)}
	_, a := g.Attend(scores, values)
	var sum float64
	for _, w := range a {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("attention weights sum to %v, want 1", sum)
	}
	// The scratch arena is LIFO and Attend takes two same-length slices
	// (weights + backward dots), so identical calls cycle between the
	// same two blocks: the first and third calls share backing memory.
	g.Reset()
	g.Attend(scores, values)
	g.Reset()
	_, b := g.Attend(scores, values)
	if &a[0] != &b[0] {
		t.Fatalf("Attend weights were not recycled after Reset")
	}
}
