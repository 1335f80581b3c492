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

// dqnCore is the shared deep-Q machinery of DRLindex and DQN: a
// (state, candidate) Q-network trained from a replay buffer with
// ε-greedy exploration.
type dqnCore struct {
	kind    StateKind
	opt     Options
	prune   bool
	hidden  int
	epsilon float64
	gamma   float64

	q   *scoreNet
	cm  *costmodel.Model
	rng *rand.Rand
}

type transition struct {
	state    []float64
	feats    [][]float64
	mask     []bool
	action   int
	reward   float64
	next     []float64
	nextMask []bool
	done     bool
}

func (d *dqnCore) ensure(seed int64) {
	if d.q != nil {
		return
	}
	d.rng = rand.New(rand.NewSource(seed))
	d.q = newScoreNet(StateLen(d.kind), d.hidden, d.rng)
}

// train runs DQN episodes over the training workloads, stopping at the
// next episode boundary once ctx is done.
func (d *dqnCore) train(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint, episodes int, seed int64) error {
	d.ensure(seed)
	if cm, err := costmodel.TrainOnWorkloads(e, train, 4, seed+1); err == nil {
		d.cm = cm
	}
	t := d.newTrainer(ctx, e, train, c, seed)
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.episode(ep)
	}
	return nil
}

const (
	// dqnBatch is the number of replayed transitions per update.
	dqnBatch = 8
	// dqnBuffer bounds the replay buffer.
	dqnBuffer = 2000
)

// dqnTrainer is one train call: the shared trainer state plus the
// optimizer, the replay buffer and the exploration rate.
type dqnTrainer struct {
	trainer
	d      *dqnCore
	seed   int64
	opt    *nn.Adam
	buffer []transition
	eps    float64
}

func (d *dqnCore) newTrainer(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint, seed int64) *dqnTrainer {
	return &dqnTrainer{
		trainer: newTrainer(ctx, e, train, c),
		d:       d,
		seed:    seed,
		opt:     nn.NewAdam(2e-3),
		eps:     d.epsilon,
	}
}

// episode plays one ε-greedy episode into the replay buffer, then
// replays a batch from it.
func (t *dqnTrainer) episode(ep int) {
	t.rollout(ep)
	if len(t.buffer) >= dqnBatch {
		t.backward()
		t.apply()
	}
	if t.eps > 0.05 {
		t.eps *= 0.98
	}
}

// rollout draws a training workload and plays an ε-greedy episode on it.
func (t *dqnTrainer) rollout(ep int) {
	d := t.d
	env := t.episodeEnv(d.rng.Intn(len(t.train)), d.kind, d.opt, d.prune, t.seed+int64(ep), d.cm)
	for {
		state := env.state()
		mask := env.validMask()
		var act int
		if d.rng.Float64() < t.eps {
			act = randomValid(mask, d.rng)
		} else {
			act = argmaxMasked(d.q.logits(&t.sc, state, env.feats), mask)
		}
		if act < 0 {
			return
		}
		r, done := env.step(act)
		next := env.state()
		nextMask := env.validMask()
		t.buffer = append(t.buffer, transition{
			state: state, feats: env.feats, mask: mask, action: act,
			reward: r, next: next, nextMask: nextMask,
			done: done || act == len(env.cands),
		})
		if len(t.buffer) > dqnBuffer {
			t.buffer = t.buffer[len(t.buffer)-dqnBuffer:]
		}
		if done || act == len(env.cands) {
			return
		}
	}
}

// backward records the squared TD error of a replayed batch on the
// training graph and runs it backward.
func (t *dqnTrainer) backward() {
	d, g := t.d, t.g
	for k := 0; k < dqnBatch; k++ {
		tr := t.buffer[d.rng.Intn(len(t.buffer))]
		target := tr.reward
		if !tr.done {
			nq := d.q.logits(&t.sc, tr.next, tr.feats)
			if na := argmaxMasked(nq, tr.nextMask); na >= 0 {
				target += d.gamma * nq[na]
			}
		}
		logits := d.q.record(g, &t.sc, tr.state, tr.feats)
		// MSE on the chosen action's Q value.
		diff := logits.W[tr.action] - target
		logits.G[tr.action] += diff
	}
	g.Backward()
}

// apply clips and applies the gradients and resets the training graph.
func (t *dqnTrainer) apply() {
	t.d.q.params.ClipGrads(5)
	t.opt.Step(t.d.q.params)
	t.g.Reset()
}

// recommend runs a greedy Q rollout.
func (d *dqnCore) recommend(e *engine.Engine, w *workload.Workload, c Constraint, seed int64) schema.Config {
	d.ensure(seed)
	env := newEnv(context.Background(), e, w, c, d.kind, d.prune, seed, newEnvBase(e, w, d.opt, d.cm), d.cm)
	var sc scoreScratch
	for {
		state := env.state()
		mask := env.validMask()
		act := argmaxMasked(d.q.logits(&sc, state, env.feats), mask)
		if act < 0 || act == len(env.cands) {
			break
		}
		if _, done := env.step(act); done {
			break
		}
	}
	return env.cfg
}

func randomValid(mask []bool, rng *rand.Rand) int {
	var valid []int
	for i, ok := range mask {
		if ok {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return -1
	}
	return valid[rng.Intn(len(valid))]
}

// DRLindex is the cluster-database DQN advisor of Sadri et al. (IDEAS
// 2020): a coarse column-matrix state, single-column candidates only, and
// a #index constraint.
type DRLindex struct {
	// State selects the representation (coarse by default; Figure 12).
	State StateKind
	// Episodes is the number of training episodes.
	Episodes int
	// Seed drives all randomness.
	Seed int64

	core *dqnCore
}

// NewDRLindex builds a DRLindex advisor with paper-faithful defaults.
func NewDRLindex(seed int64) *DRLindex {
	return &DRLindex{State: CoarseState, Episodes: 120, Seed: seed}
}

// Name implements Advisor.
func (a *DRLindex) Name() string { return "DRLindex" }

func (a *DRLindex) ensure() {
	if a.core == nil {
		a.core = &dqnCore{
			kind:    a.State,
			opt:     Options{MultiColumn: false, Interaction: true},
			prune:   true,
			hidden:  32,
			epsilon: 0.5,
			gamma:   0.95,
		}
	}
}

// Train implements Trainable.
func (a *DRLindex) Train(e *engine.Engine, train []*workload.Workload, c Constraint) error {
	return a.TrainCtx(context.Background(), e, train, c)
}

// TrainCtx implements CtxTrainable: training stops at the next episode
// boundary once ctx is done.
func (a *DRLindex) TrainCtx(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) error {
	a.ensure()
	return a.core.train(ctx, e, train, c, a.Episodes, a.Seed)
}

// Recommend implements Advisor.
func (a *DRLindex) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	a.ensure()
	return validate(a.Name(), e.Schema(), a.core.recommend(e, w, c, a.Seed), c)
}

// DQN is the index advisor of Lan et al. (CIKM 2020): deep Q-learning
// with five heuristic candidate rules (equality, range, join and
// order/group columns plus two-column combinations — our Candidates
// generator), multi-column indexes, and a #index constraint.
type DQN struct {
	// State selects the representation (fine-ish by default; Figure 12).
	State StateKind
	// Pruning enables the heuristic candidate rules (Figure 13); when
	// disabled the pool is polluted with irrelevant indexes.
	Pruning bool
	// Episodes is the number of training episodes.
	Episodes int
	// Seed drives all randomness.
	Seed int64

	core *dqnCore
}

// NewDQN builds a DQN advisor with paper-faithful defaults.
func NewDQN(seed int64) *DQN {
	return &DQN{State: FineState, Pruning: true, Episodes: 120, Seed: seed}
}

// Name implements Advisor.
func (a *DQN) Name() string { return "DQN" }

func (a *DQN) ensure() {
	if a.core == nil {
		a.core = &dqnCore{
			kind:    a.State,
			opt:     DefaultOptions(),
			prune:   a.Pruning,
			hidden:  32,
			epsilon: 0.5,
			gamma:   0.95,
		}
	}
}

// Train implements Trainable.
func (a *DQN) Train(e *engine.Engine, train []*workload.Workload, c Constraint) error {
	return a.TrainCtx(context.Background(), e, train, c)
}

// TrainCtx implements CtxTrainable: training stops at the next episode
// boundary once ctx is done.
func (a *DQN) TrainCtx(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) error {
	a.ensure()
	return a.core.train(ctx, e, train, c, a.Episodes, a.Seed)
}

// Recommend implements Advisor.
func (a *DQN) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	a.ensure()
	return validate(a.Name(), e.Schema(), a.core.recommend(e, w, c, a.Seed), c)
}
