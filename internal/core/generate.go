package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/trace"
	"github.com/trap-repro/trap/internal/workload"
)

// DecStep records one actionable decoding decision for training: the
// logits tensor over the candidates and the index chosen.
type DecStep struct {
	Logits *nn.Tensor
	Chosen int
}

// DecodeResult is the outcome of perturbing one query.
type DecodeResult struct {
	Query   *sqlx.Query
	Edits   int
	Steps   []DecStep
	Choices []int // chosen token ids at actionable steps (for replay)

	// pass is the encoder pass the decode began from (nil when the model
	// has none to share), valid until the Reset of the graph it lives on.
	pass *encPass
}

// Decode generates a perturbed query from q using the model's policy,
// walking the Constraint-Aware Reference Tree (Algorithm 1). With
// sample=true tokens are drawn from the masked distribution; otherwise
// greedy argmax is used (the self-critic baseline). The graph g controls
// whether gradients are recorded.
func Decode(g *nn.Graph, m Scorer, v *Vocab, q *sqlx.Query, c PerturbConstraint, eps int, sample bool, rng *rand.Rand) (*DecodeResult, error) {
	return decodeFrom(g, m, v, q, c, eps, sample, rng, nil)
}

// decodeFrom is Decode for a model that can share its encoder pass:
// given a pass of q (from an earlier decode under the same parameters)
// it begins from that pass; otherwise it computes one on g and returns
// it in the result. Other models encode q as Decode does.
func decodeFrom(g *nn.Graph, m Scorer, v *Vocab, q *sqlx.Query, c PerturbConstraint, eps int, sample bool, rng *rand.Rand, pass *encPass) (*DecodeResult, error) {
	sess := NewSession(v, q, c, eps)
	res := &DecodeResult{}
	var st DecState
	if ps, ok := m.(passScorer); ok {
		if pass == nil {
			pass = ps.EncodePass(g, v.Encode(q))
		}
		res.pass = pass
		st = ps.BeginPass(g, pass)
	} else {
		st = m.Begin(g, v.Encode(q))
	}
	for {
		step, ok := sess.Next()
		if !ok {
			break
		}
		var chosenID int
		if step.Forced() {
			chosenID = step.Candidates[0]
		} else {
			logits := m.Score(g, st, step.Candidates)
			var pos int
			if sample {
				pos = samplePos(logits, rng)
			} else {
				pos = argmaxPos(logits)
			}
			chosenID = step.Candidates[pos]
			res.Steps = append(res.Steps, DecStep{Logits: logits, Chosen: pos})
			res.Choices = append(res.Choices, chosenID)
		}
		if err := sess.Choose(chosenID); err != nil {
			return nil, err
		}
		st = m.Advance(g, st, chosenID)
	}
	out, edits := sess.Result()
	sess.Release()
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated invalid query: %w", err)
	}
	res.Query = out
	res.Edits = edits
	return res, nil
}

// Replay re-decodes q making the recorded choices, returning the logits
// steps for teacher-forced training (Equation 7).
func Replay(g *nn.Graph, m Scorer, v *Vocab, q *sqlx.Query, c PerturbConstraint, eps int, choices []int) (*DecodeResult, error) {
	sess := NewSession(v, q, c, eps)
	st := m.Begin(g, v.Encode(q))
	res := &DecodeResult{}
	k := 0
	for {
		step, ok := sess.Next()
		if !ok {
			break
		}
		var chosenID int
		if step.Forced() {
			chosenID = step.Candidates[0]
		} else {
			if k >= len(choices) {
				return nil, fmt.Errorf("core: replay ran out of choices")
			}
			chosenID = choices[k]
			pos := -1
			for i, c := range step.Candidates {
				if c == chosenID {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("core: replay choice %d not in candidates", chosenID)
			}
			logits := m.Score(g, st, step.Candidates)
			res.Steps = append(res.Steps, DecStep{Logits: logits, Chosen: pos})
			res.Choices = append(res.Choices, chosenID)
			k++
		}
		if err := sess.Choose(chosenID); err != nil {
			return nil, err
		}
		st = m.Advance(g, st, chosenID)
	}
	out, edits := sess.Result()
	sess.Release()
	res.Query = out
	res.Edits = edits
	return res, nil
}

// PerturbWorkload decodes every query of w, preserving weights.
// Cancellation is honored between queries.
func PerturbWorkload(ctx context.Context, m Scorer, v *Vocab, w *workload.Workload, c PerturbConstraint, eps int, sample bool, rng *rand.Rand) (*workload.Workload, error) {
	return perturbWorkloadOn(ctx, nn.NewGraph(false), m, v, w, c, eps, sample, rng)
}

// perturbWorkloadOn is PerturbWorkload decoding on a caller-owned graph,
// so hot callers (the framework's Generate paths) keep one persistent
// inference graph whose arena stays warm across calls. The graph is
// reset between queries and left reset on return.
func perturbWorkloadOn(ctx context.Context, g *nn.Graph, m Scorer, v *Vocab, w *workload.Workload, c PerturbConstraint, eps int, sample bool, rng *rand.Rand) (out *workload.Workload, err error) {
	ctx, tsp := trace.Start(ctx, "core.perturb_workload")
	tsp.Int("queries", int64(len(w.Items)))
	tsp.Bool("sampled", sample)
	defer func() { tsp.Fail(err); tsp.End() }()
	defer g.Reset()
	out = &workload.Workload{}
	for _, it := range w.Items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := Decode(g, m, v, it.Query, c, eps, sample, rng)
		if err != nil {
			return nil, err
		}
		out.Items = append(out.Items, workload.Item{Query: r.Query, Weight: it.Weight})
		g.Reset() // recycle the decode's tensors into the arena
	}
	return out, nil
}

// probScratch pools the sampling distribution so hot decode loops don't
// allocate a fresh probability slice per actionable step.
var probScratch = sync.Pool{New: func() any { return new([]float64) }}

func samplePos(logits *nn.Tensor, rng *rand.Rand) int {
	bp := probScratch.Get().(*[]float64)
	p := nn.SoftmaxInto(*bp, logits)
	u := rng.Float64()
	pos := len(p) - 1
	acc := 0.0
	for i, pi := range p {
		acc += pi
		if u <= acc {
			pos = i
			break
		}
	}
	*bp = p
	probScratch.Put(bp)
	return pos
}

func argmaxPos(logits *nn.Tensor) int {
	best := 0
	for i := 1; i < logits.R; i++ {
		if logits.W[i] > logits.W[best] {
			best = i
		}
	}
	return best
}
