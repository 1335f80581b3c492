package advisor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/costmodel"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/workload"
)

// The RL advisors as they ran before the one-pass scorer, kept as the
// reference the scorer and the training loops must match bit for bit:
// one Dense chain per candidate on a fresh graph per decision step,
// candidates and features rebuilt every episode with the no-index cost
// priced once per candidate, and a fresh training graph per update.

// refLogits scores every candidate plus the stop action with its own
// Dense chain on g.
func refLogits(n *scoreNet, g *nn.Graph, state []float64, feats [][]float64) *nn.Tensor {
	sv := nn.Vector(state...)
	parts := make([]*nn.Tensor, 0, len(feats)+1)
	for _, f := range feats {
		in := nn.Vector(append(append([]float64(nil), state...), f...)...)
		parts = append(parts, n.h2.Apply(g, g.Tanh(n.h1.Apply(g, in))))
	}
	parts = append(parts, n.stop2.Apply(g, g.Tanh(n.stop1.Apply(g, sv))))
	return g.Concat(parts...)
}

func refValue(n *valueNet, g *nn.Graph, state []float64) *nn.Tensor {
	return n.h2.Apply(g, g.Tanh(n.h1.Apply(g, nn.Vector(state...))))
}

// refCandidateFeatures prices the workload without indexes for every
// candidate.
func refCandidateFeatures(e *engine.Engine, w *workload.Workload, ix schema.Index, cm *costmodel.Model) []float64 {
	v := make([]float64, candFeatLen)
	v[0] = float64(len(ix.Columns))
	v[1] = math.Log1p(ix.SizeBytes(e.Schema())) / 25
	if cm != nil {
		base, err0 := cm.WorkloadCost(e, w, nil)
		with, err1 := cm.WorkloadCost(e, w, schema.Config{ix})
		if err0 == nil && err1 == nil && base > 0 {
			v[5] = (base - with) / base
		}
	} else if base := WhatIfCost(e, w, nil); base > 0 {
		v[5] = (base - WhatIfCost(e, w, schema.Config{ix})) / base
	}
	workloadFeatures(v, w, ix)
	return v
}

// refNewEnv builds an episode's candidates, features and initial cost
// from scratch.
func refNewEnv(ctx context.Context, e *engine.Engine, w *workload.Workload, c Constraint, kind StateKind, opt Options, prune bool, noiseSeed int64, cm *costmodel.Model) *env {
	cands := Candidates(e.Schema(), w, opt)
	if !prune {
		cands = append(cands, noiseCandidates(e.Schema(), w, len(cands), noiseSeed)...)
	}
	v := &env{
		ctx: ctx,
		e:   e, w: w, c: c, kind: kind, prune: prune,
		cands: cands, selected: make([]bool, len(cands)),
		maxSteps: 12,
		cm:       cm,
	}
	if c.MaxIndexes > 0 && c.MaxIndexes < v.maxSteps {
		v.maxSteps = c.MaxIndexes
	}
	v.feats = make([][]float64, len(cands))
	for i, ix := range cands {
		v.feats[i] = refCandidateFeatures(e, w, ix, cm)
	}
	v.initCost = v.envCost(nil)
	v.curCost = v.initCost
	return v
}

// refPPO is SWIRL's PPO loop, cut into the same rollout, backward and
// apply pieces as ppoTrainer so the two can run in lockstep. check sees
// every step's reference logits.
type refPPO struct {
	a          *SWIRL
	e          *engine.Engine
	train      []*workload.Workload
	c          Constraint
	popt, vopt *nn.Adam
	check      func(state []float64, feats [][]float64, logits *nn.Tensor)
}

func (r *refPPO) rollout(ep int) (*env, []ppoStep) {
	a := r.a
	w := r.train[a.rng.Intn(len(r.train))]
	env := refNewEnv(context.Background(), r.e, w, r.c, a.State, a.Opt, a.Pruning, a.Seed+int64(ep), a.cm)
	var traj []ppoStep
	for {
		state := env.state()
		mask := env.validMask()
		g := nn.NewGraph(false)
		logits := refLogits(a.policy, g, state, env.feats)
		r.check(state, env.feats, logits)
		act, logp := sampleMasked(logits.W, mask, a.rng)
		rew, done := env.step(act)
		traj = append(traj, ppoStep{state: state, mask: mask, action: act, logp: logp, reward: rew})
		if done || act == len(env.cands) {
			break
		}
	}
	return env, traj
}

func (r *refPPO) returns(traj []ppoStep) []float64 {
	returns := make([]float64, len(traj))
	run := 0.0
	for i := len(traj) - 1; i >= 0; i-- {
		run = traj[i].reward + 0.95*run
		returns[i] = run
	}
	return returns
}

func (r *refPPO) backward(env *env, traj []ppoStep, returns []float64) {
	a := r.a
	g := nn.NewGraph(true)
	for i, st := range traj {
		v := refValue(a.value, g, st.state)
		adv := returns[i] - v.W[0]
		logits := refLogits(a.policy, g, st.state, env.feats)
		r.check(st.state, env.feats, logits)
		probs := maskedProbs(logits.W, st.mask)
		ratio := expSafe(logProb(probs, st.action) - st.logp)
		weight := -adv
		if (adv > 0 && ratio > 1+ppoClip) || (adv < 0 && ratio < 1-ppoClip) {
			weight = 0
		}
		if weight != 0 {
			maskedCrossEntropy(logits, st.mask, st.action, weight)
		}
		nn.MSELoss(v, returns[i])
	}
	g.Backward()
}

func (r *refPPO) apply() {
	a := r.a
	a.policy.params.ClipGrads(5)
	a.value.params.ClipGrads(5)
	r.popt.Step(a.policy.params)
	r.vopt.Step(a.value.params)
}

// refRecommendSWIRL is SWIRL's greedy rollout.
func refRecommendSWIRL(a *SWIRL, e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	env := refNewEnv(context.Background(), e, w, c, a.State, a.Opt, a.Pruning, a.Seed, a.cm)
	for {
		state := env.state()
		mask := env.validMask()
		g := nn.NewGraph(false)
		act := argmaxMasked(refLogits(a.policy, g, state, env.feats).W, mask)
		if act < 0 || act == len(env.cands) {
			break
		}
		if _, done := env.step(act); done {
			break
		}
	}
	return validate(a.Name(), e.Schema(), env.cfg, c)
}

// refDQN is the deep-Q loop, cut like dqnTrainer.
type refDQN struct {
	d      *dqnCore
	e      *engine.Engine
	train  []*workload.Workload
	c      Constraint
	seed   int64
	opt    *nn.Adam
	buffer []transition
	eps    float64
	check  func(state []float64, feats [][]float64, logits *nn.Tensor)
}

func (r *refDQN) rollout(ep int) {
	d := r.d
	w := r.train[d.rng.Intn(len(r.train))]
	env := refNewEnv(context.Background(), r.e, w, r.c, d.kind, d.opt, d.prune, r.seed+int64(ep), d.cm)
	for {
		state := env.state()
		mask := env.validMask()
		var act int
		if d.rng.Float64() < r.eps {
			act = randomValid(mask, d.rng)
		} else {
			g := nn.NewGraph(false)
			logits := refLogits(d.q, g, state, env.feats)
			r.check(state, env.feats, logits)
			act = argmaxMasked(logits.W, mask)
		}
		if act < 0 {
			break
		}
		rew, done := env.step(act)
		next := env.state()
		nextMask := env.validMask()
		r.buffer = append(r.buffer, transition{
			state: state, feats: env.feats, mask: mask, action: act,
			reward: rew, next: next, nextMask: nextMask,
			done: done || act == len(env.cands),
		})
		if len(r.buffer) > 2000 {
			r.buffer = r.buffer[len(r.buffer)-2000:]
		}
		if done || act == len(env.cands) {
			break
		}
	}
}

func (r *refDQN) backward() {
	d := r.d
	g := nn.NewGraph(true)
	for k := 0; k < 8; k++ {
		tr := r.buffer[d.rng.Intn(len(r.buffer))]
		target := tr.reward
		if !tr.done {
			gi := nn.NewGraph(false)
			nq := refLogits(d.q, gi, tr.next, tr.feats)
			r.check(tr.next, tr.feats, nq)
			na := argmaxMasked(nq.W, tr.nextMask)
			if na >= 0 {
				target += d.gamma * nq.W[na]
			}
		}
		logits := refLogits(d.q, g, tr.state, tr.feats)
		r.check(tr.state, tr.feats, logits)
		diff := logits.W[tr.action] - target
		logits.G[tr.action] += diff
	}
	g.Backward()
}

func (r *refDQN) apply() {
	r.d.q.params.ClipGrads(5)
	r.opt.Step(r.d.q.params)
}

func (r *refDQN) decay() {
	if r.eps > 0.05 {
		r.eps *= 0.98
	}
}

// refRecommendDQN is the greedy Q rollout.
func refRecommendDQN(d *dqnCore, e *engine.Engine, w *workload.Workload, c Constraint, seed int64) schema.Config {
	env := refNewEnv(context.Background(), e, w, c, d.kind, d.opt, d.prune, seed, d.cm)
	for {
		state := env.state()
		mask := env.validMask()
		g := nn.NewGraph(false)
		act := argmaxMasked(refLogits(d.q, g, state, env.feats).W, mask)
		if act < 0 || act == len(env.cands) {
			break
		}
		if _, done := env.step(act); done {
			break
		}
	}
	return env.cfg
}

// sameFloat reports whether two floats are equal bit for bit, or both
// NaN: which NaN an operation on two different NaNs returns depends on
// the order the compiler puts its operands in (it differs under -race).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameBits reports whether two float slices are equal element by
// element, as sameFloat compares.
func sameBits(a, b []float64) bool {
	return firstDiff(a, b) == ""
}

// firstDiff names the first differing element of two float slices, or
// returns "" when there is none.
func firstDiff(a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return fmt.Sprintf("[%d] %v vs %v", i, a[i], b[i])
		}
	}
	return ""
}

// checkParams compares two registries' values (and, with grads, their
// gradients) bit for bit.
func checkParams(t *testing.T, what string, want, got *nn.Params, grads bool) {
	t.Helper()
	wt, gt := want.Tensors(), got.Tensors()
	for i := range wt {
		if !sameBits(wt[i].W, gt[i].W) {
			t.Fatalf("%s: parameter %d differs at %s", what, i, firstDiff(wt[i].W, gt[i].W))
		}
		if grads && !sameBits(wt[i].G, gt[i].G) {
			t.Fatalf("%s: gradient %d differs at %s", what, i, firstDiff(wt[i].G, gt[i].G))
		}
	}
}

// checkAdam compares two optimizers' step counts and moments.
func checkAdam(t *testing.T, what string, want, got *nn.Adam, wp, gp *nn.Params) {
	t.Helper()
	if wn, gn := want.Steps(), got.Steps(); wn != gn {
		t.Fatalf("%s: Adam step %d vs %d", what, wn, gn)
	}
	wt, gt := wp.Tensors(), gp.Tensors()
	for i := range wt {
		wm, wv := want.Moments(wt[i])
		gm, gv := got.Moments(gt[i])
		if !sameBits(wm, gm) || !sameBits(wv, gv) {
			t.Fatalf("%s: Adam moments of parameter %d differ", what, i)
		}
	}
}

// logitCheck compares the one-pass scorer with every reference scoring.
func logitCheck(t *testing.T, n *scoreNet) func([]float64, [][]float64, *nn.Tensor) {
	var sc scoreScratch
	return func(state []float64, feats [][]float64, want *nn.Tensor) {
		t.Helper()
		if got := n.logits(&sc, state, feats); !sameBits(want.W, got) {
			t.Fatalf("logits differ at %s", firstDiff(want.W, got))
		}
	}
}

// refSuite is a quick-scale tpch suite: the schema, the training and
// test workloads and the two constraints the RL advisors tune under.
type refSuite struct {
	e              *engine.Engine
	train, test    []*workload.Workload
	storage, count Constraint
}

func newRefSuite(seed int64) *refSuite {
	s := bench.TPCH(200)
	gen := workload.NewGenerator(s, seed, 10)
	r := &refSuite{
		e:       engine.New(s),
		storage: Constraint{StorageBytes: s.TotalSizeBytes() / 2},
		count:   Constraint{MaxIndexes: 4},
	}
	for i := 0; i < 6; i++ {
		r.train = append(r.train, gen.WorkloadSized(6))
	}
	for i := 0; i < 6; i++ {
		r.test = append(r.test, gen.WorkloadSized(6))
	}
	return r
}

// refEpisodes keeps the lockstep runs short; every update is compared.
const refEpisodes = 6

var refSeeds = []int64{3, 42, 1009}

// TestSWIRLMatchesReference runs SWIRL's PPO training beside the
// reference loop, fine and coarse state, pruning on and off, on three
// seeds: every logit, sampled action, gradient, parameter and Adam
// moment must match bit for bit, and so must a full TrainCtx run's
// parameters and every Recommend.
func TestSWIRLMatchesReference(t *testing.T) {
	for _, seed := range refSeeds {
		s := newRefSuite(seed)
		cm, err := costmodel.TrainOnWorkloads(s.e, s.train, 4, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []StateKind{FineState, CoarseState} {
			for _, prune := range []bool{true, false} {
				t.Run(fmt.Sprintf("seed%d/%s/prune=%v", seed, kind, prune), func(t *testing.T) {
					mk := func() *SWIRL {
						a := NewSWIRL(seed)
						a.State, a.Pruning, a.Episodes = kind, prune, refEpisodes
						a.ensureNets()
						a.cm = cm
						return a
					}
					ref, cur := mk(), mk()
					rt := &refPPO{a: ref, e: s.e, train: s.train, c: s.storage,
						popt: nn.NewAdam(3e-3), vopt: nn.NewAdam(3e-3), check: logitCheck(t, ref.policy)}
					ct := cur.newPPOTrainer(context.Background(), s.e, s.train, s.storage)
					for ep := 0; ep < refEpisodes; ep++ {
						renv, rtraj := rt.rollout(ep)
						feats, traj := ct.rollout(ep)
						checkTrajectory(t, ep, renv.feats, rtraj, feats, traj)
						rret, ret := rt.returns(rtraj), discounted(traj)
						if !sameBits(rret, ret) {
							t.Fatalf("episode %d: returns differ at %s", ep, firstDiff(rret, ret))
						}
						for epoch := 0; epoch < ppoEpochs; epoch++ {
							rt.backward(renv, rtraj, rret)
							ct.backward(feats, traj, ret)
							what := fmt.Sprintf("episode %d update %d", ep, epoch)
							checkParams(t, what+" policy", ref.policy.params, cur.policy.params, true)
							checkParams(t, what+" value", ref.value.params, cur.value.params, true)
							rt.apply()
							ct.apply()
							checkParams(t, what+" policy", ref.policy.params, cur.policy.params, false)
							checkParams(t, what+" value", ref.value.params, cur.value.params, false)
							checkAdam(t, what+" policy", rt.popt, ct.popt, ref.policy.params, cur.policy.params)
							checkAdam(t, what+" value", rt.vopt, ct.vopt, ref.value.params, cur.value.params)
						}
					}

					full := NewSWIRL(seed)
					full.State, full.Pruning, full.Episodes = kind, prune, refEpisodes
					if err := full.Train(s.e, s.train, s.storage); err != nil {
						t.Fatal(err)
					}
					checkParams(t, "TrainCtx policy", ref.policy.params, full.policy.params, false)
					checkParams(t, "TrainCtx value", ref.value.params, full.value.params, false)
					for i, w := range s.test {
						want, werr := refRecommendSWIRL(ref, s.e, w, s.storage)
						got, gerr := full.Recommend(s.e, w, s.storage)
						if werr != nil || gerr != nil || want.Key() != got.Key() {
							t.Fatalf("workload %d: Recommend = %s (%v), reference %s (%v)", i, got.Key(), gerr, want.Key(), werr)
						}
					}
				})
			}
		}
	}
}

// checkTrajectory compares a sampled episode with the reference's.
func checkTrajectory(t *testing.T, ep int, wantFeats [][]float64, want []ppoStep, gotFeats [][]float64, got []ppoStep) {
	t.Helper()
	checkFeats(t, fmt.Sprintf("episode %d", ep), wantFeats, gotFeats)
	if len(want) != len(got) {
		t.Fatalf("episode %d: %d steps, reference %d", ep, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.action != g.action || !sameBits(w.state, g.state) || !sameMask(w.mask, g.mask) ||
			!sameFloat(w.logp, g.logp) || !sameFloat(w.reward, g.reward) {
			t.Fatalf("episode %d step %d: action %d logp %v reward %v, reference %d %v %v",
				ep, i, g.action, g.logp, g.reward, w.action, w.logp, w.reward)
		}
	}
}

func checkFeats(t *testing.T, what string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d candidates, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(want[i], got[i]) {
			t.Fatalf("%s: candidate %d features differ at %s", what, i, firstDiff(want[i], got[i]))
		}
	}
}

func sameMask(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDQNMatchesReference runs the deep-Q training of DQN and DRLindex
// beside the reference loop, fine and coarse state, pruning on and off,
// on three seeds: every greedy action and replayed transition, logit,
// gradient, parameter and Adam moment must match bit for bit, and so
// must a full TrainCtx run's parameters and every Recommend.
func TestDQNMatchesReference(t *testing.T) {
	for _, seed := range refSeeds {
		s := newRefSuite(seed)
		cm, err := costmodel.TrainOnWorkloads(s.e, s.train, 4, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"DQN", "DRLindex"} {
			for _, kind := range []StateKind{FineState, CoarseState} {
				for _, prune := range []bool{true, false} {
					t.Run(fmt.Sprintf("seed%d/%s/%s/prune=%v", seed, name, kind, prune), func(t *testing.T) {
						mk := func() (Advisor, *dqnCore) {
							if name == "DQN" {
								a := NewDQN(seed)
								a.State, a.Pruning, a.Episodes = kind, prune, refEpisodes
								a.ensure()
								return a, a.core
							}
							a := NewDRLindex(seed)
							a.State, a.Episodes = kind, refEpisodes
							a.ensure()
							a.core.prune = prune
							return a, a.core
						}
						_, rd := mk()
						_, cd := mk()
						for _, d := range []*dqnCore{rd, cd} {
							d.ensure(seed)
							d.cm = cm
						}
						rt := &refDQN{d: rd, e: s.e, train: s.train, c: s.count, seed: seed,
							opt: nn.NewAdam(2e-3), eps: rd.epsilon, check: logitCheck(t, rd.q)}
						ct := cd.newTrainer(context.Background(), s.e, s.train, s.count, seed)
						for ep := 0; ep < refEpisodes; ep++ {
							rt.rollout(ep)
							ct.rollout(ep)
							checkBuffer(t, ep, rt.buffer, ct.buffer)
							if len(rt.buffer) >= dqnBatch {
								rt.backward()
								ct.backward()
								what := fmt.Sprintf("episode %d", ep)
								checkParams(t, what, rd.q.params, cd.q.params, true)
								rt.apply()
								ct.apply()
								checkParams(t, what, rd.q.params, cd.q.params, false)
								checkAdam(t, what, rt.opt, ct.opt, rd.q.params, cd.q.params)
							}
							rt.decay()
							if ct.eps > 0.05 {
								ct.eps *= 0.98
							}
						}

						full, fd := mk()
						if err := full.(Trainable).Train(s.e, s.train, s.count); err != nil {
							t.Fatal(err)
						}
						checkParams(t, "TrainCtx", rd.q.params, fd.q.params, false)
						for i, w := range s.test {
							want, werr := validate(name, s.e.Schema(), refRecommendDQN(rd, s.e, w, s.count, seed), s.count)
							got, gerr := full.Recommend(s.e, w, s.count)
							if werr != nil || gerr != nil || want.Key() != got.Key() {
								t.Fatalf("workload %d: Recommend = %s (%v), reference %s (%v)", i, got.Key(), gerr, want.Key(), werr)
							}
						}
					})
				}
			}
		}
	}
}

// checkBuffer compares the replay buffer with the reference's, every
// transition's features included: a later episode must not have written
// into an earlier one's.
func checkBuffer(t *testing.T, ep int, want, got []transition) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("episode %d: %d transitions, reference %d", ep, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		what := fmt.Sprintf("episode %d transition %d", ep, i)
		checkFeats(t, what, w.feats, g.feats)
		if w.action != g.action || w.done != g.done || !sameBits(w.state, g.state) || !sameBits(w.next, g.next) ||
			!sameMask(w.mask, g.mask) || !sameMask(w.nextMask, g.nextMask) || !sameFloat(w.reward, g.reward) {
			t.Fatalf("%s: action %d reward %v done %v, reference %d %v %v", what, g.action, g.reward, g.done, w.action, w.reward, w.done)
		}
	}
}

// specials are the inputs that tell the skip rules apart: a zero
// gradient row or chain is skipped, so 0·Inf and 0·NaN never reach a
// parameter; saturated tanh gives zero rows; signed zeros must not leak.
var specials = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 0, math.Copysign(0, -1), 40, -40}

// randomInputs draws a state and n candidates' features, with a few
// special values when wild.
func randomInputs(rng *rand.Rand, stateLen, n int, wild bool) ([]float64, [][]float64) {
	val := func() float64 {
		if wild && rng.Intn(12) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	state := make([]float64, stateLen)
	for i := range state {
		state[i] = val()
	}
	feats := make([][]float64, n)
	for c := range feats {
		feats[c] = make([]float64, candFeatLen)
		for k := range feats[c] {
			feats[c][k] = val()
		}
	}
	return state, feats
}

// TestScoreNetMatchesReference drives the one-pass scorer and the
// per-candidate reference on synthetic steps: fine and coarse state
// lengths, a hidden width with a tail row, 0 to 40 candidates, special
// inputs, and gradient seeds that leave some chains and rows at zero.
// Logits, with and without a tape, and every parameter gradient after a
// multi-step backward pass must match bit for bit.
func TestScoreNetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		stateLen := []int{fineStateLen, coarseStateLen}[trial%2]
		hidden := []int{32, 7}[trial/2%2]
		wild := trial%3 == 0
		seed := rng.Int63()
		ref := newScoreNet(stateLen, hidden, rand.New(rand.NewSource(seed)))
		cur := newScoreNet(stateLen, hidden, rand.New(rand.NewSource(seed)))
		for _, tn := range ref.params.Tensors() {
			for i := range tn.W {
				if wild && rng.Intn(40) == 0 {
					tn.W[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		for i, tn := range ref.params.Tensors() {
			copy(cur.params.Tensors()[i].W, tn.W)
		}
		rg, cg := nn.NewGraph(true), nn.NewGraph(true)
		var sc scoreScratch
		steps := 1 + rng.Intn(4)
		for step := 0; step < steps; step++ {
			state, feats := randomInputs(rng, stateLen, rng.Intn(41), wild)
			want := refLogits(ref, rg, state, feats)
			if got := cur.logits(&sc, state, feats); !sameBits(want.W, got) {
				t.Fatalf("trial %d step %d: logits differ at %s", trial, step, firstDiff(want.W, got))
			}
			got := cur.record(cg, &sc, state, feats)
			if !sameBits(want.W, got.W) {
				t.Fatalf("trial %d step %d: recorded logits differ at %s", trial, step, firstDiff(want.W, got.W))
			}
			for i := range want.G {
				var d float64
				switch rng.Intn(4) {
				case 0: // masked: no gradient
				case 1:
					if wild {
						d = specials[rng.Intn(len(specials))]
						break
					}
					fallthrough
				default:
					d = rng.NormFloat64()
				}
				want.G[i] += d
				got.G[i] += d
			}
		}
		rg.Backward()
		cg.Backward()
		checkParams(t, fmt.Sprintf("trial %d", trial), ref.params, cur.params, true)
	}
}

// TestRecommendConcurrent runs Recommend of one trained SWIRL and one
// trained DQN on six workloads from four goroutines at once: every
// result must equal the sequential call's.
func TestRecommendConcurrent(t *testing.T) {
	s := newRefSuite(42)
	swirl := NewSWIRL(42)
	swirl.Episodes = 8
	dqn := NewDQN(42)
	dqn.Episodes = 8
	for _, tc := range []struct {
		a Advisor
		c Constraint
	}{{swirl, s.storage}, {dqn, s.count}} {
		if err := tc.a.(Trainable).Train(s.e, s.train, tc.c); err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(s.test))
		for i, w := range s.test {
			cfg, err := tc.a.Recommend(s.e, w, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = cfg.Key()
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(s.test))
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range s.test {
					i := (k + g) % len(s.test)
					cfg, err := tc.a.Recommend(s.e, s.test[i], tc.c)
					if err != nil {
						errs <- err
					} else if cfg.Key() != want[i] {
						errs <- fmt.Errorf("%s workload %d: %s concurrently, %s alone", tc.a.Name(), i, cfg.Key(), want[i])
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// BenchmarkScoreCandidates scores one decision step of a fine-state
// scorer over 40 candidates on warm scratch, without gradients: it must
// not allocate.
func BenchmarkScoreCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := newScoreNet(fineStateLen, 32, rng)
	state, feats := randomInputs(rng, fineStateLen, 40, false)
	var sc scoreScratch
	n.logits(&sc, state, feats)
	if allocs := testing.AllocsPerRun(10, func() { n.logits(&sc, state, feats) }); allocs != 0 {
		b.Fatalf("scoring a step on warm scratch allocates %.0f objects, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.logits(&sc, state, feats)
	}
}

// BenchmarkSWIRLTrain trains SWIRL for 20 episodes on a quick tpch
// suite, its cost model included.
func BenchmarkSWIRLTrain(b *testing.B) {
	s := newRefSuite(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewSWIRL(42)
		a.Episodes = 20
		if err := a.Train(s.e, s.train, s.storage); err != nil {
			b.Fatal(err)
		}
	}
}
