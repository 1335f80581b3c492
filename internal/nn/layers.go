package nn

import (
	"math"
	"math/rand"
)

// Params is a named registry of trainable tensors, used by the optimizer
// and for parameter counting (Table IV).
type Params struct {
	names   []string
	tensors []*Tensor
}

// Add registers a tensor under a name and returns it.
func (p *Params) Add(name string, t *Tensor) *Tensor {
	p.names = append(p.names, name)
	p.tensors = append(p.tensors, t)
	return t
}

// Merge registers every tensor of another registry under a prefix.
func (p *Params) Merge(prefix string, o *Params) {
	for i, t := range o.tensors {
		p.Add(prefix+"/"+o.names[i], t)
	}
}

// Tensors returns the registered tensors.
func (p *Params) Tensors() []*Tensor { return p.tensors }

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, t := range p.tensors {
		n += t.Size()
	}
	return n
}

// State deep-copies every parameter's values (for snapshot/restore, e.g.
// re-using a pretrained encoder across several RL runs).
func (p *Params) State() [][]float64 {
	out := make([][]float64, len(p.tensors))
	for i, t := range p.tensors {
		out[i] = append([]float64(nil), t.W...)
	}
	return out
}

// SetState restores values captured by State.
func (p *Params) SetState(state [][]float64) {
	if len(state) != len(p.tensors) {
		panic("nn: SetState length mismatch")
	}
	for i, t := range p.tensors {
		copy(t.W, state[i])
	}
}

// ZeroGrads clears all gradients.
func (p *Params) ZeroGrads() {
	for _, t := range p.tensors {
		t.ZeroGrad()
	}
}

// ClipGrads scales gradients so the global L2 norm is at most maxNorm,
// returning the pre-clip norm.
func (p *Params) ClipGrads(maxNorm float64) float64 {
	var sq float64
	for _, t := range p.tensors {
		for _, g := range t.G {
			sq += g * g
		}
	}
	if sq == 0 {
		// All-zero gradients (e.g. a skipped workload): nothing to scale.
		return 0
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, t := range p.tensors {
			for i := range t.G {
				t.G[i] *= scale
			}
		}
	}
	return norm
}

// glorot returns the Glorot-uniform init scale for a fanIn×fanOut layer.
func glorot(fanIn, fanOut int) float64 {
	return math.Sqrt(6.0 / float64(fanIn+fanOut))
}

// Dense is a fully connected layer y = act(W·x + b).
type Dense struct {
	W, B *Tensor
}

// NewDense builds a Dense layer with Glorot init, registering its
// parameters under name.
func NewDense(p *Params, name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W: RandTensor(out, in, glorot(in, out), rng),
		B: NewTensor(out, 1),
	}
	p.Add(name+".W", d.W)
	p.Add(name+".B", d.B)
	return d
}

// Apply computes W·x + b.
func (d *Dense) Apply(g *Graph, x *Tensor) *Tensor {
	return g.Add(g.Mul(d.W, x), d.B)
}

// Embedding maps token ids to dense vectors.
type Embedding struct {
	Table *Tensor // vocab × dim
}

// NewEmbedding builds an embedding table.
func NewEmbedding(p *Params, name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Table: RandTensor(vocab, dim, 0.1, rng)}
	p.Add(name+".table", e.Table)
	return e
}

// Lookup returns the embedding of token id as a column vector.
func (e *Embedding) Lookup(g *Graph, id int) *Tensor { return g.Lookup(e.Table, id) }

// Dim returns the embedding dimension.
func (e *Embedding) Dim() int { return e.Table.C }

// Vocab returns the vocabulary size.
func (e *Embedding) Vocab() int { return e.Table.R }

// GRUCell is a gated recurrent unit cell.
type GRUCell struct {
	Wz, Uz, Bz *Tensor
	Wr, Ur, Br *Tensor
	Wh, Uh, Bh *Tensor
	Hidden     int
}

// NewGRUCell builds a GRU cell mapping (in, hidden) -> hidden.
func NewGRUCell(p *Params, name string, in, hidden int, rng *rand.Rand) *GRUCell {
	sw := glorot(in, hidden)
	su := glorot(hidden, hidden)
	c := &GRUCell{
		Wz: RandTensor(hidden, in, sw, rng), Uz: RandTensor(hidden, hidden, su, rng), Bz: NewTensor(hidden, 1),
		Wr: RandTensor(hidden, in, sw, rng), Ur: RandTensor(hidden, hidden, su, rng), Br: NewTensor(hidden, 1),
		Wh: RandTensor(hidden, in, sw, rng), Uh: RandTensor(hidden, hidden, su, rng), Bh: NewTensor(hidden, 1),
		Hidden: hidden,
	}
	p.Add(name+".Wz", c.Wz)
	p.Add(name+".Uz", c.Uz)
	p.Add(name+".Bz", c.Bz)
	p.Add(name+".Wr", c.Wr)
	p.Add(name+".Ur", c.Ur)
	p.Add(name+".Br", c.Br)
	p.Add(name+".Wh", c.Wh)
	p.Add(name+".Uh", c.Uh)
	p.Add(name+".Bh", c.Bh)
	return c
}

// Step advances the cell one timestep: h_t = GRU(x_t, h_{t-1}).
//
// The whole cell is one fused op: forward computes the gates with the
// blocked kernels of gemm.go into arena scratch, and one backward
// closure propagates every gradient, replacing the ~17 tensors and ~15
// tape entries the op-composed formulation recorded per step. Every
// element's accumulation order is fixed, so results are bit-identical
// across rollout worker counts.
func (c *GRUCell) Step(g *Graph, x, hPrev *Tensor) *Tensor {
	h := c.Hidden
	out := g.allocOut(h, 1)
	act := g.floatsRaw(gruActs * h)
	c.forward(x.W, hPrev.W, act, out.W)
	if !g.NeedsGrad {
		return out
	}
	scr := g.floatsRaw(gruScratch * h) // assigned or zeroed before each read
	g.addBack(func() {
		c.backward(out.G, x.W, x.G, hPrev.W, hPrev.G, act, scr)
	})
	return out
}

// gruActs is the number of hidden-long activation vectors one step
// keeps for its backward: the update gate z, the reset gate r, the
// candidate ht and r∘hPrev, packed in that order. gruScratch is the
// backward's scratch: the pre-activation gradients of z, r and ht and
// the reset path's Uhᵀ·dah.
const (
	gruActs    = 4
	gruScratch = 4
)

// forward computes one step from x and hPrev into act (see gruActs) and
// the new state hNew. The six gate products run through the blocked
// matvec, with hNew doubling as the U·h scratch; each pre-activation is
// (W·x) + (U·h) + b, added in that order.
func (c *GRUCell) forward(x, hPrev, act, hNew []float64) {
	h, in := c.Hidden, len(x)
	z, r, ht, rh := act[:h], act[h:2*h], act[2*h:3*h], act[3*h:4*h]
	matvecTo(z, c.Wz.W, x, h, in)
	matvecTo(hNew, c.Uz.W, hPrev, h, h)
	for i, b := range c.Bz.W {
		z[i] = 1 / (1 + math.Exp(-(z[i] + hNew[i] + b)))
	}
	matvecTo(r, c.Wr.W, x, h, in)
	matvecTo(hNew, c.Ur.W, hPrev, h, h)
	for i, b := range c.Br.W {
		r[i] = 1 / (1 + math.Exp(-(r[i] + hNew[i] + b)))
		rh[i] = r[i] * hPrev[i]
	}
	matvecTo(ht, c.Wh.W, x, h, in)
	matvecTo(hNew, c.Uh.W, rh, h, h)
	for i, b := range c.Bh.W {
		ht[i] = math.Tanh(ht[i] + hNew[i] + b)
		hNew[i] = (1-z[i])*hPrev[i] + z[i]*ht[i]
	}
}

// backward propagates dh, the gradient reaching one step's new state,
// through that step: hg (hPrev's gradient) receives the carry, the
// reset path, Uzᵀ·daz and Urᵀ·dar in that order; the parameters their
// rank-1 updates; xg Wzᵀ·daz, Wrᵀ·dar and Whᵀ·dah. act is the step's
// forward activations and scr gruScratch·hidden floats of scratch.
func (c *GRUCell) backward(dh, x, xg, hPrev, hg, act, scr []float64) {
	h, in := c.Hidden, len(x)
	z, r, ht, rh := act[:h], act[h:2*h], act[2*h:3*h], act[3*h:4*h]
	daz, dar, dah, drh := scr[:h], scr[h:2*h], scr[2*h:3*h], scr[3*h:4*h]
	for i := 0; i < h; i++ {
		dah[i] = dh[i] * z[i] * (1 - ht[i]*ht[i])
		daz[i] = dh[i] * (ht[i] - hPrev[i]) * z[i] * (1 - z[i])
		hg[i] += dh[i] * (1 - z[i])
	}
	// drh = Uhᵀ·dah, split into the reset gate and the carry path.
	zeroFloats(drh)
	addMulTvec(drh, c.Uh.W, dah, h, h)
	for i := 0; i < h; i++ {
		hg[i] += drh[i] * r[i]
		dar[i] = drh[i] * hPrev[i] * r[i] * (1 - r[i])
	}
	addOuter(c.Wz.G, daz, x)
	addOuter(c.Wr.G, dar, x)
	addOuter(c.Wh.G, dah, x)
	addOuter(c.Uz.G, daz, hPrev)
	addOuter(c.Ur.G, dar, hPrev)
	addOuter(c.Uh.G, dah, rh)
	addVec(c.Bz.G, daz)
	addVec(c.Br.G, dar)
	addVec(c.Bh.G, dah)
	addMulTvec(xg, c.Wz.W, daz, h, in)
	addMulTvec(xg, c.Wr.W, dar, h, in)
	addMulTvec(xg, c.Wh.W, dah, h, in)
	addMulTvec(hg, c.Uz.W, daz, h, h)
	addMulTvec(hg, c.Ur.W, dar, h, h)
}

// BiGRU is a bidirectional GRU encoder: a forward and a backward cell
// whose per-position states are concatenated (Section IV-A, Step 1).
type BiGRU struct {
	Fwd, Bwd *GRUCell
}

// NewBiGRU builds the encoder pair.
func NewBiGRU(p *Params, name string, in, hidden int, rng *rand.Rand) *BiGRU {
	return &BiGRU{
		Fwd: NewGRUCell(p, name+".fwd", in, hidden, rng),
		Bwd: NewGRUCell(p, name+".bwd", in, hidden, rng),
	}
}

// BiGRUPass is one encoder forward pass over a sequence, kept off any
// tape: both cells' activations and states at every position. Record
// turns it into the packed state matrix on a graph, so several graphs
// that encode the same inputs with the same parameters (a greedy decode
// and the sampled trajectories of one RL step) share one forward pass.
type BiGRUPass struct {
	n int
	// fwd and bwd hold one row per position t: the activations of the
	// cell's step at t (gruActs vectors) followed by its new state.
	fwd, bwd []float64
	zero     []float64 // both cells' initial state
}

// gruRow returns the activations and state of one cell's step at
// position t of a pass.
func gruRow(seq []float64, h, t int) (act, state []float64) {
	w := (gruActs + 1) * h
	r := seq[t*w : (t+1)*w]
	return r[:gruActs*h], r[gruActs*h:]
}

// Pass runs both cells over xs, carving every activation from g's arena
// without recording anything, whatever g.NeedsGrad: the pass is valid
// until g's next Reset.
func (b *BiGRU) Pass(g *Graph, xs []*Tensor) *BiGRUPass {
	n, h := len(xs), b.Fwd.Hidden
	if n == 0 {
		panic("nn: BiGRU pass needs a non-empty sequence")
	}
	p := &BiGRUPass{
		n:    n,
		fwd:  g.floatsRaw((gruActs + 1) * h * n),
		bwd:  g.floatsRaw((gruActs + 1) * h * n),
		zero: g.floats(h),
	}
	prev := p.zero
	for t := 0; t < n; t++ {
		act, state := gruRow(p.fwd, h, t)
		b.Fwd.forward(xs[t].W, prev, act, state)
		prev = state
	}
	prev = p.zero
	for t := n - 1; t >= 0; t-- {
		act, state := gruRow(p.bwd, h, t)
		b.Bwd.forward(xs[t].W, prev, act, state)
		prev = state
	}
	return p
}

// Record returns the pass's packed state matrix H (2·hidden × n) on g,
// whose column i is [h^f_i ; h^b_i] — the layout the prepared attention
// (AttCache) and the decoder bridge consume. When g records, the whole
// backward through time is one closure, and the input gradients land
// in xs[i].G. xs must hold the inputs the pass was computed from; they
// may be Lookup views that share rows.
func (b *BiGRU) Record(g *Graph, p *BiGRUPass, xs []*Tensor) *Tensor {
	n, h := p.n, b.Fwd.Hidden
	if len(xs) != n {
		panic("nn: BiGRU record needs the pass's inputs")
	}
	H := g.allocOut(2*h, n)
	for t := 0; t < n; t++ {
		_, fs := gruRow(p.fwd, h, t)
		_, bs := gruRow(p.bwd, h, t)
		for i := 0; i < h; i++ {
			H.W[i*n+t] = fs[i]
			H.W[(h+i)*n+t] = bs[i]
		}
	}
	if !g.NeedsGrad {
		return H
	}
	scr := g.floatsRaw((gruScratch + 2) * h) // assigned or zeroed before each read
	g.addBack(func() {
		b.backprop(p, xs, H.G, scr)
	})
	return H
}

// EncodePacked maps a sequence of input vectors to the packed state
// matrix H: Record over a Pass on the same graph.
func (b *BiGRU) EncodePacked(g *Graph, xs []*Tensor) *Tensor {
	return b.Record(g, b.Pass(g, xs), xs)
}

// backprop runs the backward through time from H's gradient dH in the
// order a per-step tape ran it: the backward cell's steps at positions
// 0…n−1 (it stepped from n−1 down), then the forward cell's at n−1…0.
// Each state's gradient starts as its column of dH and then receives
// the carry from the step that read it; the initial state's gradient
// is dropped.
func (b *BiGRU) backprop(p *BiGRUPass, xs []*Tensor, dH, scr []float64) {
	n, h := p.n, b.Fwd.Hidden
	step := scr[:gruScratch*h]
	dh, dprev := scr[gruScratch*h:(gruScratch+1)*h], scr[(gruScratch+1)*h:(gruScratch+2)*h]
	// Backward cell: rows h…2h−1 of dH; its step at t read the state at t+1.
	stateGrad(dh, dH, h, n, 0)
	for t := 0; t < n; t++ {
		stateGrad(dprev, dH, h, n, t+1)
		hPrev := p.zero
		if t+1 < n {
			_, hPrev = gruRow(p.bwd, h, t+1)
		}
		act, _ := gruRow(p.bwd, h, t)
		b.Bwd.backward(dh, xs[t].W, xs[t].G, hPrev, dprev, act, step)
		dh, dprev = dprev, dh
	}
	// Forward cell: rows 0…h−1; its step at t read the state at t−1.
	stateGrad(dh, dH, 0, n, n-1)
	for t := n - 1; t >= 0; t-- {
		stateGrad(dprev, dH, 0, n, t-1)
		hPrev := p.zero
		if t > 0 {
			_, hPrev = gruRow(p.fwd, h, t-1)
		}
		act, _ := gruRow(p.fwd, h, t)
		b.Fwd.backward(dh, xs[t].W, xs[t].G, hPrev, dprev, act, step)
		dh, dprev = dprev, dh
	}
}

// stateGrad sets dst to the gradient the packed matrix passes to one
// state: zero plus column t of dH over rows off…off+len(dst)−1, or zero
// when t lies outside the sequence (the initial state). It adds to a
// zeroed buffer rather than copying, as the per-step tape accumulated
// into a zeroed gradient, so a −0 in dH becomes +0 there too.
func stateGrad(dst, dH []float64, off, n, t int) {
	zeroFloats(dst)
	if t < 0 || t >= n {
		return
	}
	for i := range dst {
		dst[i] += dH[(off+i)*n+t]
	}
}
