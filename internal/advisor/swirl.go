package advisor

import (
	"context"
	"math/rand"

	"github.com/trap-repro/trap/internal/costmodel"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/workload"
)

// SWIRL is the workload-aware RL advisor of Kossmann et al. (EDBT 2022):
// PPO over a pointer-style policy with a fine-grained plan-derived state
// representation and invalid-action masking, under a storage constraint
// and with multi-column indexes.
type SWIRL struct {
	// Opt controls candidate generation (multi-column on by default).
	Opt Options
	// State selects the representation granularity (Figure 12 ablation).
	State StateKind
	// Pruning enables invalid-action masking (Figure 13 ablation).
	Pruning bool
	// Episodes is the number of training episodes.
	Episodes int
	// Seed drives all randomness.
	Seed int64
	// Hidden is the policy/value hidden width.
	Hidden int

	policy *scoreNet
	value  *valueNet
	cm     *costmodel.Model
	rng    *rand.Rand
}

// NewSWIRL builds a SWIRL advisor with paper-faithful defaults.
func NewSWIRL(seed int64) *SWIRL {
	return &SWIRL{
		Opt:      DefaultOptions(),
		State:    FineState,
		Pruning:  true,
		Episodes: 120,
		Seed:     seed,
		Hidden:   32,
	}
}

// Name implements Advisor.
func (a *SWIRL) Name() string { return "SWIRL" }

func (a *SWIRL) ensureNets() {
	if a.policy != nil {
		return
	}
	a.rng = rand.New(rand.NewSource(a.Seed))
	a.policy = newScoreNet(StateLen(a.State), a.Hidden, a.rng)
	a.value = newValueNet(StateLen(a.State), a.Hidden, a.rng)
}

const (
	// ppoClip is PPO's surrogate clipping range.
	ppoClip = 0.2
	// ppoGamma discounts rewards into returns.
	ppoGamma = 0.95
	// ppoEpochs is the number of updates on each sampled trajectory.
	ppoEpochs = 2
)

// Train implements Trainable with PPO: sampled rollouts, a learned value
// baseline, and a clipped surrogate objective.
func (a *SWIRL) Train(e *engine.Engine, train []*workload.Workload, c Constraint) error {
	return a.TrainCtx(context.Background(), e, train, c)
}

// TrainCtx implements CtxTrainable: training stops at the next episode
// boundary once ctx is done.
func (a *SWIRL) TrainCtx(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) error {
	a.ensureNets()
	// Accumulate execution feedback into a learned cost model first: the
	// advisor's edge over what-if-driven heuristics.
	cm, err := costmodel.TrainOnWorkloads(e, train, 4, a.Seed+1)
	if err != nil {
		return err
	}
	a.cm = cm
	t := a.newPPOTrainer(ctx, e, train, c)
	for ep := 0; ep < a.Episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.episode(ep)
	}
	return nil
}

// ppoTrainer is one TrainCtx call: the shared trainer state plus the
// policy's and the value baseline's optimizers.
type ppoTrainer struct {
	trainer
	a          *SWIRL
	popt, vopt *nn.Adam
}

// ppoStep is one decision of a sampled trajectory.
type ppoStep struct {
	state  []float64
	mask   []bool
	action int
	logp   float64
	reward float64
}

func (a *SWIRL) newPPOTrainer(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) *ppoTrainer {
	return &ppoTrainer{
		trainer: newTrainer(ctx, e, train, c),
		a:       a,
		popt:    nn.NewAdam(3e-3),
		vopt:    nn.NewAdam(3e-3),
	}
}

// episode samples a trajectory and runs the PPO updates on it.
func (t *ppoTrainer) episode(ep int) {
	feats, traj := t.rollout(ep)
	returns := discounted(traj)
	for epoch := 0; epoch < ppoEpochs; epoch++ {
		t.backward(feats, traj, returns)
		t.apply()
	}
}

// rollout draws a training workload and samples an episode on it,
// returning the episode's candidate features and its trajectory.
func (t *ppoTrainer) rollout(ep int) ([][]float64, []ppoStep) {
	a := t.a
	env := t.episodeEnv(a.rng.Intn(len(t.train)), a.State, a.Opt, a.Pruning, a.Seed+int64(ep), a.cm)
	var traj []ppoStep
	for {
		state := env.state()
		mask := env.validMask()
		act, logp := sampleMasked(a.policy.logits(&t.sc, state, env.feats), mask, a.rng)
		r, done := env.step(act)
		traj = append(traj, ppoStep{state: state, mask: mask, action: act, logp: logp, reward: r})
		if done || act == len(env.cands) {
			return env.feats, traj
		}
	}
}

// discounted returns each step's discounted return.
func discounted(traj []ppoStep) []float64 {
	returns := make([]float64, len(traj))
	run := 0.0
	for i := len(traj) - 1; i >= 0; i-- {
		run = traj[i].reward + ppoGamma*run
		returns[i] = run
	}
	return returns
}

// backward records every step's value and clipped-surrogate losses on
// the training graph and runs it backward.
func (t *ppoTrainer) backward(feats [][]float64, traj []ppoStep, returns []float64) {
	a, g := t.a, t.g
	for i, st := range traj {
		v := a.value.value(g, st.state)
		adv := returns[i] - v.W[0]
		logits := a.policy.record(g, &t.sc, st.state, feats)
		probs := maskedProbs(logits.W, st.mask)
		ratio := expSafe(logProb(probs, st.action) - st.logp)
		// Clipped surrogate: only propagate the policy gradient when the
		// ratio is inside the trust region (or moving back toward it).
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

// apply clips and applies the gradients and resets the training graph.
func (t *ppoTrainer) apply() {
	a := t.a
	a.policy.params.ClipGrads(5)
	a.value.params.ClipGrads(5)
	t.popt.Step(a.policy.params)
	t.vopt.Step(a.value.params)
	t.g.Reset()
}

// Recommend implements Advisor with a greedy rollout of the trained
// policy (falling back to untrained-network behaviour if Train was never
// called, which mimics an undertrained agent).
func (a *SWIRL) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	a.ensureNets()
	env := newEnv(context.Background(), e, w, c, a.State, a.Pruning, a.Seed, newEnvBase(e, w, a.Opt, a.cm), a.cm)
	var sc scoreScratch
	for {
		state := env.state()
		mask := env.validMask()
		act := argmaxMasked(a.policy.logits(&sc, state, env.feats), mask)
		if act < 0 || act == len(env.cands) {
			break
		}
		_, done := env.step(act)
		if done {
			break
		}
	}
	return validate(a.Name(), e.Schema(), env.cfg, c)
}

// ParamCount returns the number of trainable parameters.
func (a *SWIRL) ParamCount() int {
	a.ensureNets()
	return a.policy.params.Count() + a.value.params.Count()
}
