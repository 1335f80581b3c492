package nn

import "math"

// Adam is the Adam optimizer.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Tensor][]float64
	v map[*Tensor][]float64
}

// NewAdam builds an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Tensor][]float64{}, v: map[*Tensor][]float64{},
	}
}

// Step applies one update to every parameter from its accumulated
// gradients and clears the gradients.
//
// Parameters the optimizer has never touched whose gradients are all
// zero are skipped without allocating moment buffers: with zero moments
// and zero gradient the update is exactly zero, so the skip is
// bit-identical to the full computation (a decoder-only model leaves
// its encoder-shaped registry slots grad-free every step, and paying
// two moment vectors per such tensor was pure waste).
func (a *Adam) Step(p *Params) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, t := range p.Tensors() {
		m := a.m[t]
		if m == nil {
			if allZero(t.G) {
				continue
			}
			m = make([]float64, t.Size())
			a.m[t] = m
			a.v[t] = make([]float64, t.Size())
		}
		v := a.v[t]
		for i := range t.W {
			g := t.G[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			t.W[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			t.G[i] = 0
		}
	}
}

// Steps returns the number of updates the optimizer has applied.
func (a *Adam) Steps() int { return a.t }

// SetSteps sets the update count, which scales the bias correction of
// the next update (a checkpoint restore sets it with the moments).
func (a *Adam) SetSteps(t int) { a.t = t }

// Moments returns the live first and second moment vectors of t, or
// nil for a tensor the optimizer has not stepped yet.
func (a *Adam) Moments(t *Tensor) (m, v []float64) { return a.m[t], a.v[t] }

// allZero reports whether every value of x is zero.
func allZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// SGD is plain stochastic gradient descent (used by the small RL advisors).
type SGD struct {
	LR float64
}

// Step applies one SGD update and clears the gradients.
func (s *SGD) Step(p *Params) {
	for _, t := range p.Tensors() {
		for i := range t.W {
			t.W[i] -= s.LR * t.G[i]
			t.G[i] = 0
		}
	}
}
