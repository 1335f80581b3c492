package nn

import (
	"math"
	"sync"
)

// Mul returns the matrix product a·b through the blocked deterministic
// kernels of gemm.go (matvec when b is a column vector).
func (g *Graph) Mul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic("nn: Mul shape mismatch")
	}
	out := g.allocOut(a.R, b.C)
	if b.C == 1 {
		matvecTo(out.W, a.W, b.W, a.R, a.C)
	} else {
		mulTo(out.W, a.W, b.W, a.R, a.C, b.C)
	}
	g.addBack(func() {
		if allZeroF(out.G) {
			return
		}
		if b.C == 1 {
			addOuter(a.G, out.G, b.W)
			addMulTvec(b.G, a.W, out.G, a.R, a.C)
		} else {
			addMulNT(a.G, out.G, b.W, a.R, a.C, b.C)
			addMulTN(b.G, a.W, out.G, a.R, a.C, b.C)
		}
	})
	return out
}

// PackCols stacks n equal-length column vectors side by side into a d×n
// matrix, turning a sequence of per-position vectors into one operand
// for a real GEMM.
func (g *Graph) PackCols(parts ...*Tensor) *Tensor {
	n := len(parts)
	if n == 0 {
		panic("nn: PackCols needs at least one column")
	}
	d := parts[0].R
	out := g.allocOut(d, n)
	for j, p := range parts {
		if p.R != d || p.C != 1 {
			panic("nn: PackCols expects equal-length column vectors")
		}
		for i := 0; i < d; i++ {
			out.W[i*n+j] = p.W[i]
		}
	}
	g.addBack(func() {
		for j, p := range parts {
			for i := 0; i < d; i++ {
				p.G[i] += out.G[i*n+j]
			}
		}
	})
	return out
}

// Col returns column j of m as a column vector.
func (g *Graph) Col(m *Tensor, j int) *Tensor {
	out := g.allocOut(m.R, 1)
	for i := 0; i < m.R; i++ {
		out.W[i] = m.W[i*m.C+j]
	}
	g.addBack(func() {
		for i := 0; i < m.R; i++ {
			m.G[i*m.C+j] += out.G[i]
		}
	})
	return out
}

// VStack stacks equal-width matrices vertically (by rows).
func (g *Graph) VStack(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("nn: VStack needs at least one part")
	}
	c := parts[0].C
	rows := 0
	for _, p := range parts {
		if p.C != c {
			panic("nn: VStack width mismatch")
		}
		rows += p.R
	}
	out := g.allocOut(rows, c)
	off := 0
	for _, p := range parts {
		copy(out.W[off:off+len(p.W)], p.W)
		off += len(p.W)
	}
	g.addBack(func() {
		off := 0
		for _, p := range parts {
			addVec(p.G, out.G[off:off+len(p.W)])
			off += len(p.W)
		}
	})
	return out
}

// AddColBias adds a column vector b to every column of m.
func (g *Graph) AddColBias(m, b *Tensor) *Tensor {
	if b.R != m.R || b.C != 1 {
		panic("nn: AddColBias shape mismatch")
	}
	out := g.allocOut(m.R, m.C)
	n := m.C
	for i := 0; i < m.R; i++ {
		bv := b.W[i]
		row := m.W[i*n : i*n+n]
		orow := out.W[i*n : i*n+n]
		for j, v := range row {
			orow[j] = v + bv
		}
	}
	g.addBack(func() {
		addVec(m.G, out.G)
		for i := 0; i < m.R; i++ {
			b.G[i] += sum(out.G[i*n : i*n+n])
		}
	})
	return out
}

// sum adds a slice in ascending index order.
func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Add returns a + b (same shape).
func (g *Graph) Add(a, b *Tensor) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic("nn: Add shape mismatch")
	}
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] + b.W[i]
	}
	g.addBack(func() {
		for i := range out.G {
			a.G[i] += out.G[i]
			b.G[i] += out.G[i]
		}
	})
	return out
}

// Hadamard returns the elementwise product a ∘ b.
func (g *Graph) Hadamard(a, b *Tensor) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic("nn: Hadamard shape mismatch")
	}
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] * b.W[i]
	}
	g.addBack(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * b.W[i]
			b.G[i] += out.G[i] * a.W[i]
		}
	})
	return out
}

// Scale returns s·a for a constant s.
func (g *Graph) Scale(a *Tensor, s float64) *Tensor {
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] * s
	}
	g.addBack(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * s
		}
	})
	return out
}

// AddConst returns a + c elementwise for a constant c.
func (g *Graph) AddConst(a *Tensor, c float64) *Tensor {
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] + c
	}
	g.addBack(func() {
		for i := range out.G {
			a.G[i] += out.G[i]
		}
	})
	return out
}

// OneMinus returns 1 - a elementwise.
func (g *Graph) OneMinus(a *Tensor) *Tensor {
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		out.W[i] = 1 - a.W[i]
	}
	g.addBack(func() {
		for i := range out.G {
			a.G[i] -= out.G[i]
		}
	})
	return out
}

// Tanh applies tanh elementwise.
func (g *Graph) Tanh(a *Tensor) *Tensor {
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		out.W[i] = math.Tanh(a.W[i])
	}
	g.addBack(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * (1 - out.W[i]*out.W[i])
		}
	})
	return out
}

// Sigmoid applies the logistic function elementwise.
func (g *Graph) Sigmoid(a *Tensor) *Tensor {
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		out.W[i] = 1 / (1 + math.Exp(-a.W[i]))
	}
	g.addBack(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * out.W[i] * (1 - out.W[i])
		}
	})
	return out
}

// Relu applies max(0, x) elementwise.
func (g *Graph) Relu(a *Tensor) *Tensor {
	out := g.allocOut(a.R, a.C)
	for i := range out.W {
		if a.W[i] > 0 {
			out.W[i] = a.W[i]
		} else {
			out.W[i] = 0
		}
	}
	g.addBack(func() {
		for i := range out.G {
			if a.W[i] > 0 {
				a.G[i] += out.G[i]
			}
		}
	})
	return out
}

// Concat stacks column vectors vertically.
func (g *Graph) Concat(parts ...*Tensor) *Tensor {
	total := 0
	for _, p := range parts {
		if p.C != 1 {
			panic("nn: Concat expects column vectors")
		}
		total += p.R
	}
	out := g.allocOut(total, 1)
	off := 0
	for _, p := range parts {
		copy(out.W[off:off+p.R], p.W)
		off += p.R
	}
	g.addBack(func() {
		off := 0
		for _, p := range parts {
			for i := 0; i < p.R; i++ {
				p.G[i] += out.G[off+i]
			}
			off += p.R
		}
	})
	return out
}

// Lookup returns row `row` of the embedding matrix m as a column
// vector. The result is a view sharing m's weight (and, when recording,
// gradient) storage for that row: a lookup costs one tensor header, no
// copy and no backward closure. This relies on every op accumulating
// into its inputs' G with += — consumer gradients land directly in m's
// gradient row, still in deterministic reverse-tape order.
func (g *Graph) Lookup(m *Tensor, row int) *Tensor {
	t := g.hdr()
	t.R, t.C = m.C, 1
	t.W = m.W[row*m.C : (row+1)*m.C]
	if g.NeedsGrad && m.G != nil {
		t.G = m.G[row*m.C : (row+1)*m.C]
	} else {
		t.G = nil
	}
	return t
}

// SelectedAffine computes out[k] = W[rows[k], :]·x + b[rows[k]] for a
// subset of rows — the masked output layer of Equation 4, evaluated only
// on the legitimate vocabulary region.
func (g *Graph) SelectedAffine(w, b, x *Tensor, rows []int) *Tensor {
	if w.C != x.R || x.C != 1 {
		panic("nn: SelectedAffine shape mismatch")
	}
	out := g.allocOut(len(rows), 1)
	for k, r := range rows {
		s := b.W[r]
		for j := 0; j < w.C; j++ {
			s += w.W[r*w.C+j] * x.W[j]
		}
		out.W[k] = s
	}
	g.addBack(func() {
		for k, r := range rows {
			d := out.G[k]
			if d == 0 {
				continue
			}
			b.G[r] += d
			for j := 0; j < w.C; j++ {
				w.G[r*w.C+j] += d * x.W[j]
				x.G[j] += d * w.W[r*w.C+j]
			}
		}
	})
	return out
}

// Attend computes softmax attention: weights a = softmax(scores), output
// ctx = Σ a_i values[i]. scores are 1×1 tensors, values equal-shaped
// column vectors. It returns the context vector and the (constant)
// weights; both are arena-backed and valid until the graph's Reset.
func (g *Graph) Attend(scores []*Tensor, values []*Tensor) (*Tensor, []float64) {
	n := len(scores)
	if n == 0 || n != len(values) {
		panic("nn: Attend needs matching non-empty scores/values")
	}
	a := g.floatsRaw(n)
	maxs := math.Inf(-1)
	for i, s := range scores {
		if s.W[0] > maxs {
			maxs = s.W[0]
		}
		_ = i
	}
	var sum float64
	for i, s := range scores {
		a[i] = math.Exp(s.W[0] - maxs)
		sum += a[i]
	}
	for i := range a {
		a[i] /= sum
	}
	d := values[0].R
	ctx := g.Alloc(d, 1)
	for i, v := range values {
		for j := 0; j < d; j++ {
			ctx.W[j] += a[i] * v.W[j]
		}
	}
	dots := g.floatsRaw(n) // backward scratch, zeroed explicitly before use
	g.addBack(func() {
		// dot[i] = dctx · values[i]
		zeroFloats(dots)
		var avg float64
		for i, v := range values {
			for j := 0; j < d; j++ {
				dots[i] += ctx.G[j] * v.W[j]
			}
			avg += a[i] * dots[i]
		}
		for i, v := range values {
			scores[i].G[0] += a[i] * (dots[i] - avg)
			for j := 0; j < d; j++ {
				v.G[j] += a[i] * ctx.G[j]
			}
		}
	})
	return ctx, a
}

// Softmax returns the probabilities of a logits column vector (no grad;
// use the cross-entropy helpers for training).
func Softmax(logits *Tensor) []float64 {
	return SoftmaxInto(nil, logits)
}

// SoftmaxInto computes Softmax into dst, reusing its capacity when it is
// large enough (allocating otherwise), and returns the probability
// slice. Hot decode loops keep a scratch slice and pass it back in to
// avoid a per-step allocation.
func SoftmaxInto(dst []float64, logits *Tensor) []float64 {
	if cap(dst) < logits.R {
		dst = make([]float64, logits.R)
	}
	p := dst[:logits.R]
	maxv := math.Inf(-1)
	for i := 0; i < logits.R; i++ {
		if logits.W[i] > maxv {
			maxv = logits.W[i]
		}
	}
	var sum float64
	for i := range p {
		p[i] = math.Exp(logits.W[i] - maxv)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// probPool recycles the probability scratch of CrossEntropy so the
// training loss costs no allocation per step at steady state.
var probPool = sync.Pool{New: func() any { return new([]float64) }}

// CrossEntropy seeds gradients for -weight·log softmax(logits)[target] and
// returns the loss value. Call Graph.Backward afterwards (gradients from
// several losses accumulate). A negative weight implements
// policy-gradient ascent on log-probability.
func CrossEntropy(logits *Tensor, target int, weight float64) float64 {
	buf := probPool.Get().(*[]float64)
	p := SoftmaxInto(*buf, logits)
	loss := -weight * math.Log(math.Max(p[target], 1e-12))
	for i := range p {
		grad := p[i]
		if i == target {
			grad -= 1
		}
		logits.G[i] += weight * grad
	}
	*buf = p
	probPool.Put(buf)
	return loss
}

// MSELoss seeds gradients for 0.5·(pred - target)² on a 1×1 tensor and
// returns the loss.
func MSELoss(pred *Tensor, target float64) float64 {
	d := pred.W[0] - target
	pred.G[0] += d
	return 0.5 * d * d
}
