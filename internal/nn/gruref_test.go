package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The GRU as it ran before the blocked kernels and the shared encoder
// pass, kept as the reference the fused Step and the BiGRU pass must
// match bit for bit: a Step whose gates are per-row dot products and
// whose backward adds each transposed product term by term in row
// order, and an encoder that records one such Step per position and
// packs the states with a per-position gradient scatter.

func refDot(a, x []float64) float64 {
	var s float64
	for i, av := range a {
		s += av * x[i]
	}
	return s
}

// refAddMulTvec is dx += Aᵀ·d one row at a time: every term goes
// straight into dx, rows ascending, zero d rows skipped.
func refAddMulTvec(dx, a, d []float64, m, k int) {
	for i := 0; i < m; i++ {
		dv := d[i]
		if dv == 0 {
			continue
		}
		row := a[i*k : i*k+k]
		for p, av := range row {
			dx[p] += dv * av
		}
	}
}

func refAddOuter(dW, d, x []float64) {
	k := len(x)
	for i, dv := range d {
		if dv == 0 {
			continue
		}
		row := dW[i*k : i*k+k]
		for j, xv := range x {
			row[j] += dv * xv
		}
	}
}

func refAddVec(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

func refStep(c *GRUCell, g *Graph, x, hPrev *Tensor) *Tensor {
	h := c.Hidden
	in := x.R
	out := g.allocOut(h, 1)
	z := g.floatsRaw(h)
	r := g.floatsRaw(h)
	ht := g.floatsRaw(h)
	rh := g.floatsRaw(h)
	for i := 0; i < h; i++ {
		az := refDot(c.Wz.W[i*in:i*in+in], x.W) + refDot(c.Uz.W[i*h:i*h+h], hPrev.W) + c.Bz.W[i]
		ar := refDot(c.Wr.W[i*in:i*in+in], x.W) + refDot(c.Ur.W[i*h:i*h+h], hPrev.W) + c.Br.W[i]
		z[i] = 1 / (1 + math.Exp(-az))
		r[i] = 1 / (1 + math.Exp(-ar))
		rh[i] = r[i] * hPrev.W[i]
	}
	for i := 0; i < h; i++ {
		ah := refDot(c.Wh.W[i*in:i*in+in], x.W) + refDot(c.Uh.W[i*h:i*h+h], rh) + c.Bh.W[i]
		ht[i] = math.Tanh(ah)
		out.W[i] = (1-z[i])*hPrev.W[i] + z[i]*ht[i]
	}
	if !g.NeedsGrad {
		return out
	}
	daz := g.floatsRaw(h)
	dar := g.floatsRaw(h)
	dah := g.floatsRaw(h)
	drh := g.floatsRaw(h)
	g.addBack(func() {
		dh := out.G
		for i := 0; i < h; i++ {
			dah[i] = dh[i] * z[i] * (1 - ht[i]*ht[i])
			daz[i] = dh[i] * (ht[i] - hPrev.W[i]) * z[i] * (1 - z[i])
			hPrev.G[i] += dh[i] * (1 - z[i])
		}
		zeroFloats(drh)
		refAddMulTvec(drh, c.Uh.W, dah, h, h)
		for i := 0; i < h; i++ {
			hPrev.G[i] += drh[i] * r[i]
			dar[i] = drh[i] * hPrev.W[i] * r[i] * (1 - r[i])
		}
		refAddOuter(c.Wz.G, daz, x.W)
		refAddOuter(c.Wr.G, dar, x.W)
		refAddOuter(c.Wh.G, dah, x.W)
		refAddOuter(c.Uz.G, daz, hPrev.W)
		refAddOuter(c.Ur.G, dar, hPrev.W)
		refAddOuter(c.Uh.G, dah, rh)
		refAddVec(c.Bz.G, daz)
		refAddVec(c.Br.G, dar)
		refAddVec(c.Bh.G, dah)
		refAddMulTvec(x.G, c.Wz.W, daz, h, in)
		refAddMulTvec(x.G, c.Wr.W, dar, h, in)
		refAddMulTvec(x.G, c.Wh.W, dah, h, in)
		refAddMulTvec(hPrev.G, c.Uz.W, daz, h, h)
		refAddMulTvec(hPrev.G, c.Ur.W, dar, h, h)
	})
	return out
}

// refPackColsPair packs two state sequences into one matrix whose
// column t is [top[t]; bot[t]].
func refPackColsPair(g *Graph, top, bot []*Tensor) *Tensor {
	n := len(top)
	dt, db := top[0].R, bot[0].R
	out := g.allocOut(dt+db, n)
	for j := 0; j < n; j++ {
		for i := 0; i < dt; i++ {
			out.W[i*n+j] = top[j].W[i]
		}
		for i := 0; i < db; i++ {
			out.W[(dt+i)*n+j] = bot[j].W[i]
		}
	}
	g.addBack(func() {
		for j := 0; j < n; j++ {
			for i := 0; i < dt; i++ {
				top[j].G[i] += out.G[i*n+j]
			}
			for i := 0; i < db; i++ {
				bot[j].G[i] += out.G[(dt+i)*n+j]
			}
		}
	})
	return out
}

func refEncodePacked(b *BiGRU, g *Graph, xs []*Tensor) *Tensor {
	n := len(xs)
	fw := make([]*Tensor, n)
	bw := make([]*Tensor, n)
	h := g.Alloc(b.Fwd.Hidden, 1)
	for i := 0; i < n; i++ {
		h = refStep(b.Fwd, g, xs[i], h)
		fw[i] = h
	}
	h = g.Alloc(b.Bwd.Hidden, 1)
	for i := n - 1; i >= 0; i-- {
		h = refStep(b.Bwd, g, xs[i], h)
		bw[i] = h
	}
	return refPackColsPair(g, fw, bw)
}

// gruCase draws one randomized shape: input and hidden widths that are
// rarely multiples of the kernels' blocks (plus the full-scale 48×48),
// sequences from length 1, and a small embedding table so that tokens
// repeat and several positions share one gradient row.
type gruCase struct {
	in, hidden, n, vocab int
	ids                  []int
	zeroUpstream         bool
}

func drawGRUCase(rng *rand.Rand, iter int) gruCase {
	c := gruCase{in: 1 + rng.Intn(13), hidden: 1 + rng.Intn(13), n: 1 + rng.Intn(9), vocab: 1 + rng.Intn(4)}
	if iter%10 == 9 {
		c.in, c.hidden = 48, 48
	}
	if iter%7 == 0 {
		c.n = 1
	}
	c.ids = make([]int, c.n)
	for i := range c.ids {
		c.ids[i] = rng.Intn(c.vocab)
	}
	c.zeroUpstream = iter%5 == 0
	return c
}

// seedGrad fills an upstream gradient: random with scattered exact
// zeros, or all zero.
func seedGrad(rng *rand.Rand, g []float64, zero bool) {
	for i := range g {
		switch {
		case zero || rng.Intn(6) == 0:
			g[i] = 0
		default:
			g[i] = rng.NormFloat64()
		}
	}
}

// gradState snapshots every gradient buffer of p.
func gradState(p *Params) [][]float64 {
	out := make([][]float64, len(p.Tensors()))
	for i, t := range p.Tensors() {
		out[i] = append([]float64(nil), t.G...)
	}
	return out
}

func eqGradState(t *testing.T, what string, p *Params, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", what, p.names[i], j, got[i][j], want[i][j])
			}
		}
	}
}

func eqBitsExact(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestGRUStepMatchesReference runs a decoder-style chain of Steps over
// Lookup inputs, seeds every state's gradient, and compares the states,
// every parameter gradient, the embedding rows' gradients and the
// initial state's gradient with the reference Step, bit for bit.
func TestGRUStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 120; iter++ {
		c := drawGRUCase(rng, iter)
		p := &Params{}
		emb := NewEmbedding(p, "emb", c.vocab, c.in, rng)
		cell := NewGRUCell(p, "gru", c.in, c.hidden, rng)
		for _, b := range []*Tensor{cell.Bz, cell.Br, cell.Bh} {
			for i := range b.W {
				b.W[i] = rng.NormFloat64()
			}
		}
		h0 := RandTensor(c.hidden, 1, 1, rng)
		upstream := make([][]float64, c.n)
		for i := range upstream {
			upstream[i] = make([]float64, c.hidden)
			seedGrad(rng, upstream[i], c.zeroUpstream)
		}
		run := func(step func(*Graph, *Tensor, *Tensor) *Tensor) ([][]float64, [][]float64, []float64) {
			p.ZeroGrads()
			h0.ZeroGrad()
			g := NewGraph(true)
			h := h0
			var states [][]float64
			var hs []*Tensor
			for _, id := range c.ids {
				h = step(g, emb.Lookup(g, id), h)
				hs = append(hs, h)
				states = append(states, append([]float64(nil), h.W...))
			}
			for i, hv := range hs {
				copy(hv.G, upstream[i])
			}
			g.Backward()
			return states, gradState(p), append([]float64(nil), h0.G...)
		}
		wantS, wantG, wantH0 := run(func(g *Graph, x, h *Tensor) *Tensor { return refStep(cell, g, x, h) })
		gotS, gotG, gotH0 := run(cell.Step)
		for i := range wantS {
			eqBitsExact(t, "Step state", gotS[i], wantS[i])
		}
		eqGradState(t, "Step", p, gotG, wantG)
		eqBitsExact(t, "Step initial-state gradient", gotH0, wantH0)
	}
}

// TestBiGRUPassMatchesReference checks the encoder the way RLTrain uses
// it: one pass on an inference graph, recorded on two tape graphs that
// backpropagate in turn, against the reference encoding afresh on each
// graph. It also checks EncodePacked on one graph and the inference H.
func TestBiGRUPassMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 120; iter++ {
		c := drawGRUCase(rng, iter)
		p := &Params{}
		emb := NewEmbedding(p, "emb", c.vocab, c.in, rng)
		enc := NewBiGRU(p, "enc", c.in, c.hidden, rng)
		const graphs = 2
		upstream := make([][]float64, graphs)
		for i := range upstream {
			upstream[i] = make([]float64, 2*c.hidden*c.n)
			seedGrad(rng, upstream[i], c.zeroUpstream && i == 0)
		}
		lookups := func(g *Graph) []*Tensor {
			xs := make([]*Tensor, c.n)
			for i, id := range c.ids {
				xs[i] = emb.Lookup(g, id)
			}
			return xs
		}
		// run encodes on each tape graph through encode, seeds H's
		// gradient and backpropagates graph by graph.
		run := func(encode func(g *Graph) *Tensor) ([][]float64, [][]float64) {
			p.ZeroGrads()
			var Hs [][]float64
			gs := make([]*Graph, graphs)
			for i := range gs {
				gs[i] = NewGraph(true)
				H := encode(gs[i])
				Hs = append(Hs, append([]float64(nil), H.W...))
				copy(H.G, upstream[i])
			}
			for _, g := range gs {
				g.Backward()
			}
			return Hs, gradState(p)
		}
		wantH, wantG := run(func(g *Graph) *Tensor { return refEncodePacked(enc, g, lookups(g)) })

		shared := NewGraph(false)
		pass := enc.Pass(shared, lookups(shared))
		gotH, gotG := run(func(g *Graph) *Tensor { return enc.Record(g, pass, lookups(g)) })
		for i := range wantH {
			eqBitsExact(t, "shared pass H", gotH[i], wantH[i])
		}
		eqGradState(t, "shared pass", p, gotG, wantG)

		gotH, gotG = run(func(g *Graph) *Tensor { return enc.EncodePacked(g, lookups(g)) })
		for i := range wantH {
			eqBitsExact(t, "EncodePacked H", gotH[i], wantH[i])
		}
		eqGradState(t, "EncodePacked", p, gotG, wantG)

		inf := NewGraph(false)
		eqBitsExact(t, "inference H", enc.EncodePacked(inf, lookups(inf)).W, wantH[0])
	}
}
