package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numGrad computes the numerical gradient of loss() w.r.t. every entry of
// the given tensors and compares it with the analytic gradients already
// accumulated in their G buffers.
func checkGrads(t *testing.T, name string, loss func() float64, tensors ...*Tensor) {
	t.Helper()
	// Analytic pass.
	for _, ten := range tensors {
		ten.ZeroGrad()
	}
	base := loss()
	_ = base
	analytic := make([][]float64, len(tensors))
	for i, ten := range tensors {
		analytic[i] = append([]float64(nil), ten.G...)
	}
	const eps = 1e-6
	for ti, ten := range tensors {
		for i := range ten.W {
			orig := ten.W[i]
			ten.W[i] = orig + eps
			lp := lossValueOnly(loss, tensors)
			ten.W[i] = orig - eps
			lm := lossValueOnly(loss, tensors)
			ten.W[i] = orig
			num := (lp - lm) / (2 * eps)
			got := analytic[ti][i]
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("%s: tensor %d entry %d: analytic %v numeric %v", name, ti, i, got, num)
				return
			}
		}
	}
}

// lossValueOnly evaluates the loss without keeping gradient side effects.
func lossValueOnly(loss func() float64, tensors []*Tensor) float64 {
	saved := make([][]float64, len(tensors))
	for i, ten := range tensors {
		saved[i] = append([]float64(nil), ten.G...)
	}
	v := loss()
	for i, ten := range tensors {
		copy(ten.G, saved[i])
	}
	return v
}

// scalarLoss runs forward with a fresh graph, seeds dOut=1 on a 1×1 result
// and backprops.
func scalarLoss(fw func(g *Graph) *Tensor) float64 {
	g := NewGraph(true)
	out := fw(g)
	if out.R != 1 || out.C != 1 {
		panic("scalarLoss wants 1x1 output")
	}
	out.G[0] = 1
	g.Backward()
	return out.W[0]
}

func TestGradMulAddDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandTensor(3, 4, 1, rng)
	b := RandTensor(4, 1, 1, rng)
	c := RandTensor(3, 1, 1, rng)
	v := RandTensor(3, 1, 1, rng)
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			y := g.Add(g.Mul(a, b), c)
			return g.Dot(v, y)
		})
	}
	checkGrads(t, "mul/add/dot", loss, a, b, c, v)
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := RandTensor(5, 1, 1, rng)
	v := RandTensor(5, 1, 1, rng)
	for name, act := range map[string]func(*Graph, *Tensor) *Tensor{
		"tanh":     func(g *Graph, a *Tensor) *Tensor { return g.Tanh(a) },
		"sigmoid":  func(g *Graph, a *Tensor) *Tensor { return g.Sigmoid(a) },
		"relu":     func(g *Graph, a *Tensor) *Tensor { return g.Relu(a) },
		"oneminus": func(g *Graph, a *Tensor) *Tensor { return g.OneMinus(a) },
		"scale":    func(g *Graph, a *Tensor) *Tensor { return g.Scale(a, -2.5) },
		"addconst": func(g *Graph, a *Tensor) *Tensor { return g.AddConst(a, 3) },
	} {
		f := act
		loss := func() float64 {
			return scalarLoss(func(g *Graph) *Tensor { return g.Dot(v, f(g, x)) })
		}
		checkGrads(t, name, loss, x, v)
	}
}

func TestGradHadamardConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandTensor(3, 1, 1, rng)
	b := RandTensor(3, 1, 1, rng)
	v := RandTensor(6, 1, 1, rng)
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			return g.Dot(v, g.Concat(g.Hadamard(a, b), a))
		})
	}
	checkGrads(t, "hadamard/concat", loss, a, b, v)
}

func TestGradLookupSelectedAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	emb := RandTensor(6, 3, 1, rng)
	w := RandTensor(8, 3, 1, rng)
	b := RandTensor(8, 1, 1, rng)
	v := RandTensor(3, 1, 1, rng)
	rows := []int{1, 4, 7}
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			x := g.Lookup(emb, 2)
			logits := g.SelectedAffine(w, b, x, rows)
			return g.Dot(Vector(0.3, -1.1, 0.7), logits)
		})
	}
	checkGrads(t, "lookup/selectedaffine", loss, emb, w, b, v)
}

func TestGradAttend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s1 := RandTensor(1, 1, 1, rng)
	s2 := RandTensor(1, 1, 1, rng)
	s3 := RandTensor(1, 1, 1, rng)
	v1 := RandTensor(4, 1, 1, rng)
	v2 := RandTensor(4, 1, 1, rng)
	v3 := RandTensor(4, 1, 1, rng)
	probe := RandTensor(4, 1, 1, rng)
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			ctx, _ := g.Attend([]*Tensor{s1, s2, s3}, []*Tensor{v1, v2, v3})
			return g.Dot(probe, ctx)
		})
	}
	checkGrads(t, "attend", loss, s1, s2, s3, v1, v2, v3, probe)
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := RandTensor(5, 3, 1, rng)
	x := RandTensor(3, 1, 1, rng)
	b := RandTensor(5, 1, 1, rng)
	loss := func() float64 {
		g := NewGraph(true)
		logits := g.SelectedAffine(w, b, x, []int{0, 1, 2, 3, 4})
		l := CrossEntropy(logits, 2, 1.7)
		g.Backward()
		return l
	}
	checkGrads(t, "crossentropy", loss, w, x, b)
}

func TestGradMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := RandTensor(1, 4, 1, rng)
	x := RandTensor(4, 1, 1, rng)
	loss := func() float64 {
		g := NewGraph(true)
		pred := g.Mul(w, x)
		l := MSELoss(pred, 0.37)
		g.Backward()
		return l
	}
	checkGrads(t, "mse", loss, w, x)
}

func TestGradGRUStep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var p Params
	cell := NewGRUCell(&p, "gru", 3, 4, rng)
	x := RandTensor(3, 1, 1, rng)
	h0 := RandTensor(4, 1, 1, rng)
	probe := RandTensor(4, 1, 1, rng)
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			h1 := cell.Step(g, x, h0)
			h2 := cell.Step(g, x, h1)
			return g.Dot(probe, h2)
		})
	}
	tensors := append([]*Tensor{x, h0, probe}, p.Tensors()...)
	checkGrads(t, "gru", loss, tensors...)
}

func TestGradBiGRUAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var p Params
	enc := NewBiGRU(&p, "enc", 3, 4, rng)
	att := NewAttention(&p, "att", 8, 4, 5, rng)
	xs := []*Tensor{RandTensor(3, 1, 1, rng), RandTensor(3, 1, 1, rng), RandTensor(3, 1, 1, rng)}
	s := RandTensor(4, 1, 1, rng)
	probe := RandTensor(8, 1, 1, rng)
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			ctx, _ := att.ContextPre(g, &AttCache{H: enc.EncodePacked(g, xs)}, s)
			return g.Dot(probe, ctx)
		})
	}
	tensors := append([]*Tensor{xs[0], xs[1], xs[2], s, probe}, p.Tensors()...)
	checkGrads(t, "bigru+attention", loss, tensors...)
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var p Params
	ln := NewLayerNorm(&p, "ln", 5)
	// Perturb gamma/beta so gradients are non-trivial.
	for i := range ln.Gamma.W {
		ln.Gamma.W[i] = 1 + 0.3*rng.Float64()
		ln.Beta.W[i] = 0.2 * rng.Float64()
	}
	x := RandTensor(5, 1, 1, rng)
	probe := RandTensor(5, 1, 1, rng)
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			return g.Dot(probe, ln.Apply(g, x))
		})
	}
	checkGrads(t, "layernorm", loss, x, probe, ln.Gamma, ln.Beta)
}

func TestGradTransformerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var p Params
	layer := NewTransformerLayer(&p, "tf", 4, 2, 6, rng)
	xs := []*Tensor{RandTensor(4, 1, 1, rng), RandTensor(4, 1, 1, rng)}
	probe := RandTensor(4, 1, 1, rng)
	loss := func() float64 {
		return scalarLoss(func(g *Graph) *Tensor {
			out := layer.Apply(g, xs)
			return g.Dot(probe, out[len(out)-1])
		})
	}
	tensors := append([]*Tensor{xs[0], xs[1], probe}, p.Tensors()...)
	checkGrads(t, "transformer", loss, tensors...)
}

func TestAdamConvergesOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var p Params
	d1 := NewDense(&p, "d1", 2, 8, rng)
	d2 := NewDense(&p, "d2", 8, 1, rng)
	opt := NewAdam(0.02)
	target := func(x, y float64) float64 { return 0.5*x - 0.8*y + 0.3 }
	var last float64
	for epoch := 0; epoch < 300; epoch++ {
		var total float64
		for i := 0; i < 16; i++ {
			x, y := rng.Float64()*2-1, rng.Float64()*2-1
			g := NewGraph(true)
			pred := d2.Apply(g, g.Tanh(d1.Apply(g, Vector(x, y))))
			total += MSELoss(pred, target(x, y))
			g.Backward()
		}
		p.ClipGrads(5)
		opt.Step(&p)
		last = total / 16
	}
	if last > 0.01 {
		t.Errorf("Adam failed to fit linear function: loss %v", last)
	}
}

func TestSGDAndZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var p Params
	d := NewDense(&p, "d", 2, 1, rng)
	g := NewGraph(true)
	pred := d.Apply(g, Vector(1, 2))
	MSELoss(pred, 5)
	g.Backward()
	before := d.W.W[0]
	(&SGD{LR: 0.1}).Step(&p)
	if d.W.W[0] == before {
		t.Error("SGD did not update")
	}
	if d.W.G[0] != 0 {
		t.Error("SGD did not clear gradients")
	}
	g2 := NewGraph(true)
	MSELoss(d.Apply(g2, Vector(1, 2)), 5)
	g2.Backward()
	p.ZeroGrads()
	for _, tt := range p.Tensors() {
		for _, gv := range tt.G {
			if gv != 0 {
				t.Fatal("ZeroGrads left gradient")
			}
		}
	}
}

func TestClipGrads(t *testing.T) {
	var p Params
	tt := p.Add("t", NewTensor(2, 1))
	tt.G[0], tt.G[1] = 3, 4 // norm 5
	norm := p.ClipGrads(1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm %v", norm)
	}
	if math.Abs(tt.G[0]-0.6) > 1e-12 || math.Abs(tt.G[1]-0.8) > 1e-12 {
		t.Errorf("clipped grads %v", tt.G)
	}
}

func TestParamsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var p Params
	NewDense(&p, "d", 3, 4, rng) // 12 + 4
	NewGRUCell(&p, "g", 3, 5, rng)
	want := 12 + 4 + 3*(5*3+5*5+5)
	if p.Count() != want {
		t.Errorf("Count = %d, want %d", p.Count(), want)
	}
	var outer Params
	outer.Merge("sub", &p)
	if outer.Count() != want {
		t.Error("Merge changed count")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	p := Softmax(Vector(1, 2, 3, -10))
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0] && p[0] > p[3]) {
		t.Errorf("softmax ordering wrong: %v", p)
	}
}

func TestInferenceGraphRecordsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := NewGraph(false)
	a := RandTensor(3, 3, 1, rng)
	b := RandTensor(3, 1, 1, rng)
	g.Mul(a, b)
	if len(g.tape) != 0 {
		t.Error("inference graph recorded tape entries")
	}
}
