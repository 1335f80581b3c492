// Package nn is a small, dependency-free neural network library built for
// TRAP's generation models: float64 matrices, tape-based reverse-mode
// autodiff, dense/embedding/GRU layers, the Luong-style attention of the
// paper's Equation 3, masked softmax output layers (Equation 4), a
// transformer encoder for the pre-trained-language-model ablation
// (Figure 7 / Table IV), and an Adam optimizer with gradient clipping.
package nn

import "math/rand"

// Tensor is a dense row-major matrix with an accompanying gradient buffer.
type Tensor struct {
	R, C int
	W    []float64 // values
	G    []float64 // gradients, same layout
}

// NewTensor allocates a zero tensor.
func NewTensor(r, c int) *Tensor {
	return &Tensor{R: r, C: c, W: make([]float64, r*c), G: make([]float64, r*c)}
}

// RandTensor allocates a tensor with entries uniform in [-scale, scale].
func RandTensor(r, c int, scale float64, rng *rand.Rand) *Tensor {
	t := NewTensor(r, c)
	for i := range t.W {
		t.W[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
}

// Vector allocates a column vector from values.
func Vector(vals ...float64) *Tensor {
	t := NewTensor(len(vals), 1)
	copy(t.W, vals)
	return t
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.W[i*t.C+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.W[i*t.C+j] = v }

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.W) }

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.G {
		t.G[i] = 0
	}
}

// Clone copies values (gradients start at zero).
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.R, t.C)
	copy(c.W, t.W)
	return c
}

// CopyFrom copies values from o (shapes must match).
func (t *Tensor) CopyFrom(o *Tensor) {
	if t.R != o.R || t.C != o.C {
		panic("nn: CopyFrom shape mismatch")
	}
	copy(t.W, o.W)
}

// Graph is a reverse-mode autodiff tape. Build the forward computation
// through Graph ops, seed gradients (e.g. via a loss), then call Backward.
//
// Every graph owns a contiguous bump arena (see arena.go): op outputs
// and scratch slices are carved front to back from retained blocks, and
// Reset rewinds the cursor, so a graph reused across tape runs reaches
// a steady state with zero heap allocation and replayed cycles receive
// the same backing memory in the same order. The lifetime rule is:
// tensors (and scratch slices) returned by graph ops are valid until
// the next Reset of the graph that produced them. A graph that is never
// Reset retains everything until the graph itself is unreachable.
// Graphs are not safe for concurrent use; use one per goroutine — the
// rollout pool gives every worker its own graph so the hot path shares
// no allocator state across workers.
type Graph struct {
	// NeedsGrad disables tape recording when false (pure inference).
	// Inference tensors carry no G buffer; flip this only right after
	// a Reset.
	NeedsGrad bool
	tape      []func()

	// ar backs tensor values, gradients and op scratch; hdrs is the
	// tensor-header slab recycled the same way (nHdr headers handed out
	// since the last Reset).
	ar   arena
	hdrs []*Tensor
	nHdr int
}

// NewGraph returns a graph; pass needsGrad=false for inference-only runs.
func NewGraph(needsGrad bool) *Graph { return &Graph{NeedsGrad: needsGrad} }

func (g *Graph) addBack(f func()) {
	if g.NeedsGrad {
		g.tape = append(g.tape, f)
	}
}

// Record appends back to the tape as the backward pass of a fused op
// whose forward ran outside the graph's own ops, on tensors from Alloc
// and on values that stay unchanged until Backward. Like every op here,
// back must add into G buffers with +=. An inference graph records
// nothing.
func (g *Graph) Record(back func()) { g.addBack(back) }

// Backward runs the tape in reverse, accumulating gradients into every
// participating tensor's G buffer.
func (g *Graph) Backward() {
	for i := len(g.tape) - 1; i >= 0; i-- {
		g.tape[i]()
	}
	g.tape = g.tape[:0]
}
