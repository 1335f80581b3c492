package advisor

import (
	"context"
	"math"
	"math/rand"

	"github.com/trap-repro/trap/internal/costmodel"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

// scoreNet scores (state, candidate) pairs with a small MLP and provides a
// separate stop head over the state — a pointer-network-style architecture
// that handles variable action spaces with invalid-action masking.
//
// A decision step scores every candidate in one pass. Each first-layer
// sum runs from zero over the input [state; features] in order, so the
// state's share is summed once per step and each candidate's sum
// continues from it over the candidate's features: the same additions
// in the same order as one Dense chain per candidate.
type scoreNet struct {
	params *nn.Params
	h1     *nn.Dense
	h2     *nn.Dense
	stop1  *nn.Dense
	stop2  *nn.Dense
}

func newScoreNet(stateLen, hidden int, rng *rand.Rand) *scoreNet {
	p := &nn.Params{}
	return &scoreNet{
		params: p,
		h1:     nn.NewDense(p, "h1", stateLen+candFeatLen, hidden, rng),
		h2:     nn.NewDense(p, "h2", hidden, 1, rng),
		stop1:  nn.NewDense(p, "stop1", stateLen, hidden, rng),
		stop2:  nn.NewDense(p, "stop2", hidden, 1, rng),
	}
}

// scoreScratch is one caller's working memory for scoring steps, reused
// across the steps of one episode or one Recommend call. It is never
// shared: Recommend runs on many goroutines at once.
type scoreScratch struct {
	part   []float64 // the state's share of each first-layer sum
	act    []float64 // one chain's tanh activations
	logits []float64 // the candidates' logits, then stop's
}

// grow returns s resized to n, reallocating only when it is too short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// logits scores every candidate plus the terminal stop action (last
// entry) without recording gradients. The result is s's and valid until
// the next call with s.
func (n *scoreNet) logits(s *scoreScratch, state []float64, feats [][]float64) []float64 {
	h := n.h1.W.R
	s.part = grow(s.part, h)
	s.act = grow(s.act, h)
	s.logits = grow(s.logits, len(feats)+1)
	clear(s.part)
	rowSums(s.part, n.h1.W.W, n.h1.W.C, 0, state)
	for c, f := range feats {
		s.logits[c] = chain(n.h1, n.h2, s.act, s.part, f, len(state))
	}
	s.logits[len(feats)] = n.stop(s.act, s.part, state)
	return s.logits
}

// record scores a step as logits does on the training graph g, keeps
// every activation on g's arena, and records one backward closure for
// the whole step. The returned logits' gradients are the losses' to
// seed before g.Backward.
func (n *scoreNet) record(g *nn.Graph, s *scoreScratch, state []float64, feats [][]float64) *nn.Tensor {
	h := n.h1.W.R
	nc := len(feats)
	out := g.Alloc(nc+1, 1)
	act := g.Alloc(nc+1, h).W // row c: candidate c's activations; row nc: stop's
	s.part = grow(s.part, h)
	clear(s.part)
	rowSums(s.part, n.h1.W.W, n.h1.W.C, 0, state)
	for c, f := range feats {
		out.W[c] = chain(n.h1, n.h2, act[c*h:(c+1)*h], s.part, f, len(state))
	}
	out.W[nc] = n.stop(act[nc*h:], s.part, state)
	g.Record(func() {
		// Terms go in the order of one Dense chain per candidate on the
		// tape: the stop head, recorded last, runs backward first, then
		// the candidates from last to first.
		chainBackward(n.stop1, n.stop2, state, nil, act[nc*h:], out.G[nc])
		for c := nc - 1; c >= 0; c-- {
			chainBackward(n.h1, n.h2, state, feats[c], act[c*h:(c+1)*h], out.G[c])
		}
	})
	return out
}

// stop scores the stop head into act, reusing part for its first-layer
// sums.
func (n *scoreNet) stop(act, part, state []float64) float64 {
	clear(part)
	rowSums(part, n.stop1.W.W, n.stop1.W.C, 0, state)
	return chain(n.stop1, n.stop2, act, part, nil, len(state))
}

// rowSums continues out[j] += Σ_k w[j, off+k]·x[k] for every row j of
// the row-major w (stride in), term by term with k ascending. Four rows
// share each x load, as matvecTo's passes do.
func rowSums(out, w []float64, in, off int, x []float64) {
	k := len(x)
	j := 0
	for ; j+4 <= len(out); j += 4 {
		w0 := w[(j+0)*in+off:][:k]
		w1 := w[(j+1)*in+off:][:k]
		w2 := w[(j+2)*in+off:][:k]
		w3 := w[(j+3)*in+off:][:k]
		s0, s1, s2, s3 := out[j], out[j+1], out[j+2], out[j+3]
		for p, xv := range x {
			s0 += w0[p] * xv
			s1 += w1[p] * xv
			s2 += w2[p] * xv
			s3 += w3[p] * xv
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		wj := w[j*in+off:][:k]
		s := out[j]
		for p, xv := range x {
			s += wj[p] * xv
		}
		out[j] = s
	}
}

// chain finishes one w2·tanh(W1·[x; f] + b1) + b2 chain whose sums
// over x (xLen inputs) are in part: it continues them over f, adds the
// bias, applies tanh into act and returns the logit.
func chain(l1, l2 *nn.Dense, act, part, f []float64, xLen int) float64 {
	copy(act, part)
	rowSums(act, l1.W.W, l1.W.C, xLen, f)
	for j, b := range l1.B.W {
		act[j] = math.Tanh(act[j] + b)
	}
	var s float64
	for j, w := range l2.W.W {
		s += w * act[j]
	}
	return s + l2.B.W[0]
}

// chainBackward adds one chain's parameter gradients for its logit
// gradient d, the terms the Add, Mul and Tanh ops of a Dense chain add:
// a zero d skips the second layer's weights (Mul returns early on a zero
// upstream gradient) but still adds its zeros to the biases, and a
// first-layer row with zero gradient is skipped (as addOuter skips it).
// Input gradients reach no parameter and are not computed.
func chainBackward(l1, l2 *nn.Dense, x, f, act []float64, d float64) {
	l2.B.G[0] += d
	w2, w2g := l2.W.W, l2.W.G
	if d != 0 {
		for j, a := range act {
			w2g[j] += d * a
		}
	}
	in := l1.W.C
	b1g, w1g := l1.B.G, l1.W.G
	for j, a := range act {
		var ag float64
		if d != 0 {
			ag = d * w2[j]
		}
		gj := ag * (1 - a*a)
		b1g[j] += gj
		if gj == 0 {
			continue
		}
		row := w1g[j*in : (j+1)*in]
		for k, xv := range x {
			row[k] += gj * xv
		}
		row = row[len(x):]
		for k, fv := range f {
			row[k] += gj * fv
		}
	}
}

// valueNet is a small state-value MLP (the PPO baseline).
type valueNet struct {
	params *nn.Params
	h1, h2 *nn.Dense
}

func newValueNet(stateLen, hidden int, rng *rand.Rand) *valueNet {
	p := &nn.Params{}
	return &valueNet{
		params: p,
		h1:     nn.NewDense(p, "v1", stateLen, hidden, rng),
		h2:     nn.NewDense(p, "v2", hidden, 1, rng),
	}
}

func (n *valueNet) value(g *nn.Graph, state []float64) *nn.Tensor {
	x := g.Alloc(len(state), 1)
	copy(x.W, state)
	return n.h2.Apply(g, g.Tanh(n.h1.Apply(g, x)))
}

// env is the index-selection episode environment shared by the RL
// advisors: the agent adds one index per step until it stops, exhausts
// the constraint, or hits the step limit.
type env struct {
	// ctx bounds the episode's runtime-costing calls; a canceled context
	// makes envCost return 0 so the episode winds down without draining
	// full costing loops.
	ctx   context.Context
	e     *engine.Engine
	w     *workload.Workload
	c     Constraint
	kind  StateKind
	prune bool

	cands    []schema.Index
	feats    [][]float64
	selected []bool

	cfg      schema.Config
	initCost float64
	curCost  float64
	steps    int
	maxSteps int

	// cm is the advisor's learned cost model (nil before training): the
	// execution-feedback signal that lets learning-based advisors correct
	// what-if estimation error.
	cm *costmodel.Model
}

// envCost evaluates the workload under the configuration with the
// runtime stand-in: learning-based advisors are rewarded with observed
// execution cost rather than optimizer estimates — the advantage over
// what-if-driven heuristics they claim (and the paper verifies).
func (v *env) envCost(cfg schema.Config) float64 {
	c, err := workload.RuntimeCostCtx(v.ctx, v.e, v.w, cfg)
	if err != nil {
		return 0
	}
	return c
}

// envBase is what an episode's environment takes from its workload
// alone while the cost model is fixed, as it is during training: the
// pruned candidates, their features and the workload's initial runtime
// cost. A trainer builds one per training workload and shares it across
// episodes, so only the initial-cost memo is ever written into it.
type envBase struct {
	cands    []schema.Index
	feats    [][]float64
	initCost float64
	// priced reports that initCost was computed without error; an
	// episode that could not price it gets 0 and the next one retries.
	priced bool
}

func newEnvBase(e *engine.Engine, w *workload.Workload, opt Options, cm *costmodel.Model) *envBase {
	cands := Candidates(e.Schema(), w, opt)
	return &envBase{cands: cands, feats: candidateFeaturesWith(e, w, cands, cm)}
}

// trainer is what one training call shares across its episodes: each
// training workload's envBase, built on first use, one training graph
// reset between updates, and the scorer's scratch.
type trainer struct {
	ctx   context.Context
	e     *engine.Engine
	train []*workload.Workload
	c     Constraint

	bases []*envBase
	g     *nn.Graph
	sc    scoreScratch
}

func newTrainer(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) trainer {
	return trainer{ctx: ctx, e: e, train: train, c: c, bases: make([]*envBase, len(train)), g: nn.NewGraph(true)}
}

// episodeEnv prepares an episode on training workload i.
func (t *trainer) episodeEnv(i int, kind StateKind, opt Options, prune bool, noiseSeed int64, cm *costmodel.Model) *env {
	if t.bases[i] == nil {
		t.bases[i] = newEnvBase(t.e, t.train[i], opt, cm)
	}
	return newEnv(t.ctx, t.e, t.train[i], t.c, kind, prune, noiseSeed, t.bases[i], cm)
}

// newEnv prepares an episode on base's candidates. When pruning is
// disabled (Figure 13), the candidate pool is polluted with
// syntactically irrelevant noise indexes, seeded per episode, and only
// hard-infeasible actions are masked.
func newEnv(ctx context.Context, e *engine.Engine, w *workload.Workload, c Constraint, kind StateKind, prune bool, noiseSeed int64, base *envBase, cm *costmodel.Model) *env {
	cands, feats := base.cands, base.feats
	if !prune {
		// Appended to copies: the base is shared across episodes, and
		// DQN's replay buffer keeps earlier episodes' feats.
		noise := noiseCandidates(e.Schema(), w, len(cands), noiseSeed)
		n := len(cands)
		cands = append(cands[:n:n], noise...)
		feats = append(feats[:n:n], candidateFeaturesWith(e, w, noise, cm)...)
	}
	v := &env{
		ctx: ctx,
		e:   e, w: w, c: c, kind: kind, prune: prune,
		cands: cands, feats: feats, selected: make([]bool, len(cands)),
		maxSteps: 12,
		cm:       cm,
	}
	if c.MaxIndexes > 0 && c.MaxIndexes < v.maxSteps {
		v.maxSteps = c.MaxIndexes
	}
	if !base.priced {
		cost, err := workload.RuntimeCostCtx(ctx, e, w, nil)
		if err == nil {
			base.initCost, base.priced = cost, true
		}
	}
	v.initCost = base.initCost
	v.curCost = v.initCost
	return v
}

// noiseCandidates builds irrelevant indexes on columns the workload never
// touches — what an advisor faces without candidate pruning.
func noiseCandidates(s *schema.Schema, w *workload.Workload, n int, seed int64) []schema.Index {
	rng := rand.New(rand.NewSource(seed))
	touched := map[sqlx.ColumnRef]bool{}
	for _, c := range w.Columns() {
		touched[c] = true
	}
	var out []schema.Index
	for tries := 0; len(out) < n && tries < n*20; tries++ {
		t := s.Tables[rng.Intn(len(s.Tables))]
		col := t.Columns[rng.Intn(len(t.Columns))]
		if touched[sqlx.ColumnRef{Table: t.Name, Column: col.Name}] {
			continue
		}
		out = append(out, schema.Index{Table: t.Name, Columns: []string{col.Name}})
	}
	return out
}

// state returns the current state vector.
func (v *env) state() []float64 {
	return StateVec(v.kind, v.e, v.w, v.cfg, v.c)
}

// validMask marks selectable actions; the stop action (index len(cands))
// is always valid. With pruning enabled the mask also removes actions
// that would exceed the constraint, repeat a selection, or violate the
// multi-column precondition (leading column must be filtered or joined).
func (v *env) validMask() []bool {
	mask := make([]bool, len(v.cands)+1)
	for i, ix := range v.cands {
		if v.selected[i] {
			continue
		}
		if !v.prune {
			mask[i] = true
			continue
		}
		if !v.c.Fits(v.e.Schema(), v.cfg, ix) {
			continue
		}
		// Precondition: multi-column indexes need a predicate or join on
		// the leading column (feats[2]/feats[3] are those frequencies).
		if len(ix.Columns) > 1 && v.feats[i][2] == 0 && v.feats[i][3] == 0 {
			continue
		}
		mask[i] = true
	}
	// The terminal action is only offered when nothing else is feasible:
	// the paper's SWIRL has no explicit stop — episodes end when the
	// budget is exhausted (a large budget merely "allows advisors to
	// return more indexes").
	any := false
	for i := 0; i < len(v.cands); i++ {
		if mask[i] {
			any = true
			break
		}
	}
	mask[len(v.cands)] = !any
	return mask
}

// step applies action a (len(cands) = stop), returning the reward and
// whether the episode ended. Rewards are relative runtime-cost
// reductions (see envCost).
func (v *env) step(a int) (float64, bool) {
	v.steps++
	if a == len(v.cands) {
		return 0, true
	}
	ix := v.cands[a]
	if v.selected[a] || !v.c.Fits(v.e.Schema(), v.cfg, ix) {
		// Infeasible action (reachable only without pruning): wasted step.
		v.selected[a] = true
		return -0.02, v.steps >= v.maxSteps
	}
	v.selected[a] = true
	v.cfg = v.cfg.Add(ix)
	nc := v.envCost(v.cfg)
	r := 0.0
	if v.initCost > 0 {
		r = (v.curCost - nc) / v.initCost
	}
	v.curCost = nc
	return r, v.steps >= v.maxSteps
}

// sampleMasked draws an action from softmax(logits) restricted to the
// mask, returning the action and its log-probability.
func sampleMasked(logits []float64, mask []bool, rng *rand.Rand) (int, float64) {
	probs := maskedProbs(logits, mask)
	u := rng.Float64()
	acc := 0.0
	last := -1
	for i, p := range probs {
		if p == 0 {
			continue
		}
		acc += p
		last = i
		if u <= acc {
			return i, logProb(probs, i)
		}
	}
	return last, logProb(probs, last)
}

// argmaxMasked returns the highest-scoring valid action.
func argmaxMasked(logits []float64, mask []bool) int {
	best := -1
	for i, l := range logits {
		if !mask[i] {
			continue
		}
		if best < 0 || l > logits[best] {
			best = i
		}
	}
	return best
}

func maskedProbs(logits []float64, mask []bool) []float64 {
	probs := make([]float64, len(logits))
	maxv := 0.0
	first := true
	for i, l := range logits {
		if mask[i] && (first || l > maxv) {
			maxv = l
			first = false
		}
	}
	var sum float64
	for i, l := range logits {
		if mask[i] {
			probs[i] = expSafe(l - maxv)
			sum += probs[i]
		}
	}
	if sum > 0 {
		for i := range probs {
			probs[i] /= sum
		}
	}
	return probs
}

func logProb(probs []float64, i int) float64 {
	p := probs[i]
	if p < 1e-12 {
		p = 1e-12
	}
	return logSafe(p)
}

// maskedCrossEntropy seeds -weight·log p(target) gradients on the masked
// softmax of logits and returns the loss.
func maskedCrossEntropy(logits *nn.Tensor, mask []bool, target int, weight float64) float64 {
	probs := maskedProbs(logits.W, mask)
	loss := -weight * logProb(probs, target)
	for i := range probs {
		if !mask[i] {
			continue
		}
		grad := probs[i]
		if i == target {
			grad -= 1
		}
		logits.G[i] += weight * grad
	}
	return loss
}
