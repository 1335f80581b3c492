package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/par"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/trace"
	"github.com/trap-repro/trap/internal/workload"
)

// Framework ties a generation model to a perturbation constraint, an edit
// budget and (optionally) a learned utility model, and implements the
// two-phase training paradigm: index-advisor-independent pretraining
// (Section IV-C) followed by reinforced perturbation policy learning with
// the self-critic baseline (Section IV-B).
//
// # Concurrency and cancellation
//
// Every long-running method takes a context and checks it cooperatively
// at epoch and workload (pair) granularity, so deadlines and shutdown
// interrupt training instead of waiting it out. A Framework is safe for
// concurrent use: an internal mutex serializes model access, with
// training holding it per workload so concurrent Generate calls
// interleave at workload boundaries. Note that GenerateSampled draws
// from the shared RNG and therefore perturbs training determinism when
// run concurrently with RLTrain; greedy Generate and the seeded
// GenerateSeeded do not.
//
// Within one training step, the B sampled trajectories of Equation 6
// fan out across a bounded rollout pool (RolloutWorkers goroutines,
// GOMAXPROCS by default): each trajectory decodes forward on its own
// graph with its own RNG stream and computes its reward through the
// advisor and utility model, which are read-only at that point. The
// gradient reduce that follows is strictly sequential in trajectory
// order, so trained parameters are bit-identical for every worker count.
//
// # Determinism and checkpoints
//
// The RNG is re-seeded deterministically at every RL epoch boundary (a
// mix of the construction seed and the epoch index), and every sampled
// trajectory derives its private RNG stream from (epoch seed, workload
// index, trajectory index), which makes an epoch's randomness
// independent of everything that ran before it. That is what makes
// checkpoint/resume exact: a run restored from SaveCheckpoint and
// continued produces bit-identical parameters to an uninterrupted run
// with the same seed.
type Framework struct {
	Model      Scorer
	Vocab      *Vocab
	Constraint PerturbConstraint
	Eps        int
	// Utility is the learned index utility model; nil uses raw what-if
	// estimates instead (the "w/o Cost Model" ablation of Figure 8a).
	Utility *UtilityModel
	// Theta is the θ threshold of Definition 3.3: workloads where the
	// advisor's utility does not exceed it are skipped in training.
	Theta float64
	// LR is the Adam learning rate (the paper uses 0.001).
	LR float64
	// Batch is the number of sampled trajectories per workload in the
	// policy-gradient loss (the batch B of Equation 6).
	Batch int
	// RolloutWorkers bounds the trajectory rollout pool (0: GOMAXPROCS;
	// 1: sequential). The trained parameters are bit-identical for every
	// value — the pool only changes wall-clock time.
	RolloutWorkers int

	// StartEpoch is the first RL epoch RLTrain runs (set by
	// LoadCheckpoint so resumed jobs skip completed epochs).
	StartEpoch int
	// EpochHook, when non-nil, is called after every completed RL epoch
	// with the epoch index — the checkpointing hook. It runs with no
	// framework lock held, so it may call SaveCheckpoint. A non-nil
	// return aborts training with that error.
	EpochHook func(epoch int) error
	// Inject is the fault-injection hook; nil (the default) disables
	// injection entirely.
	Inject faultinject.Injector

	seed int64
	rng  *rand.Rand
	// opt is the RL optimizer; it persists across RLTrain calls (and
	// through checkpoints) so Adam's moment estimates survive a resume.
	opt *nn.Adam

	// mu serializes model parameters, the RNG and uCache between
	// training steps and concurrent Generate calls.
	mu sync.Mutex

	// Persistent graphs (a sync.Pool is cleared by every GC cycle, which
	// re-triggered the arena's warm-up allocations mid-training): greedyG
	// serves the sequential greedy prologue and genG the Generate calls,
	// both under mu; rollG[b] is sampled trajectory b's private tape —
	// during a rollout fan-out each worker owns exactly the entries it
	// was dealt, so the hot path shares no allocator state across
	// workers and allocation volume does not scale with worker count.
	greedyG *nn.Graph
	genG    *nn.Graph
	rollG   []*nn.Graph

	// uCache memoizes the advisor's utility on original workloads during
	// RL training (deterministic, so safe to reuse across trajectories).
	uCache map[string]float64
}

// NewFramework builds a framework with paper defaults (θ=0.1, ε=5).
func NewFramework(m Scorer, v *Vocab, c PerturbConstraint, seed int64) *Framework {
	return &Framework{
		Model:      m,
		Vocab:      v,
		Constraint: c,
		Eps:        5,
		Theta:      0.1,
		LR:         0.001,
		Batch:      2,
		seed:       seed,
		rng:        rand.New(rand.NewSource(seed)),
		uCache:     map[string]float64{},
	}
}

// epochSeed derives the deterministic RNG seed for one RL epoch.
func (f *Framework) epochSeed(epoch int) int64 {
	return f.seed*1_000_003 + int64(epoch)*7_919 + 1
}

// Pretrain runs the index-advisor-independent phase (Equation 7): random
// perturbation pairs are synthesized from the generator and the model is
// trained to reproduce them by teacher forcing through the reference
// tree. Afterwards the decoder is re-initialized — only the encoder's
// SQL understanding transfers to the RL phase. Returns the per-epoch
// mean loss trace. Cancellation is honored between epochs and between
// pairs.
func (f *Framework) Pretrain(ctx context.Context, gen *workload.Generator, pairs, epochs int) (losses []float64, err error) {
	ctx, tsp := trace.Start(ctx, "core.pretrain")
	ctx, restore := trace.Layer(ctx, "pretrain")
	defer restore()
	tsp.Int("pairs", int64(pairs))
	tsp.Int("epochs", int64(epochs))
	defer func() { tsp.Fail(err); tsp.End() }()
	rnd := RandomModel{}
	type pair struct {
		q       *sqlx.Query
		choices []int
	}
	var data []pair
	f.mu.Lock()
	g := nn.NewGraph(false)
	for len(data) < pairs {
		if err := ctx.Err(); err != nil {
			f.mu.Unlock()
			return nil, err
		}
		q := gen.Query()
		r, err := Decode(g, rnd, f.Vocab, q, f.Constraint, f.Eps, true, f.rng)
		if err != nil {
			f.mu.Unlock()
			return nil, err
		}
		data = append(data, pair{q: q, choices: r.Choices})
		g.Reset() // recycle the decode's tensors into the arena
	}
	params := f.Model.Params()
	f.mu.Unlock()
	if params == nil {
		return nil, fmt.Errorf("core: model %s has no parameters to pretrain", f.Model.Name())
	}
	opt := nn.NewAdam(f.LR)
	gt := nn.NewGraph(true)
	epoch := func() (float64, int, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		total, steps := 0.0, 0
		for _, d := range data {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
			gt.Reset() // one graph per epoch loop: the arena stays warm
			r, err := Replay(gt, f.Model, f.Vocab, d.q, f.Constraint, f.Eps, d.choices)
			if err != nil {
				return 0, 0, err
			}
			for _, st := range r.Steps {
				total += nn.CrossEntropy(st.Logits, st.Chosen, 1)
				steps++
			}
			gt.Backward()
			params.ClipGrads(5)
			opt.Step(params)
		}
		return total, steps, nil
	}
	for ep := 0; ep < epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return losses, err
		}
		if err := faultinject.Fire(f.Inject, faultinject.PointPretrainEpoch); err != nil {
			return losses, err
		}
		_, esp := trace.Start(ctx, "pretrain.epoch")
		esp.Int("epoch", int64(ep))
		total, steps, err := epoch()
		if err != nil {
			esp.Fail(err)
			esp.End()
			return losses, err
		}
		if steps > 0 {
			mean := total / float64(steps)
			losses = append(losses, mean)
			esp.Float("pretrain_loss", mean)
			esp.Int("steps", int64(steps))
		}
		esp.End()
	}
	// Encoder-only transfer: refresh the decoder for RL exploration.
	f.mu.Lock()
	f.Model.ResetDecoder(f.rng)
	f.mu.Unlock()
	return losses, nil
}

// utilityOf evaluates u(W, d, ·) for a configuration against a baseline,
// with the learned model when available and what-if estimates otherwise.
func (f *Framework) utilityOf(ctx context.Context, e *engine.Engine, w *workload.Workload, cfg, base schema.Config) float64 {
	if f.Utility != nil {
		u, err := f.Utility.UtilityCtx(ctx, e, w, cfg, base)
		if err != nil {
			return 0
		}
		return u
	}
	cb, err := workload.CostCtx(ctx, e, w, base, engine.ModeEstimated)
	if err != nil || cb <= 0 {
		return 0
	}
	ci, err := workload.CostCtx(ctx, e, w, cfg, engine.ModeEstimated)
	if err != nil {
		return 0
	}
	return 1 - ci/cb
}

// RewardOf computes the training reward r = IUDR for a perturbed
// workload against an advisor (Equation 6's r).
func (f *Framework) RewardOf(ctx context.Context, e *engine.Engine, adv advisor.Advisor, baseAdv advisor.Advisor, c advisor.Constraint, w, pert *workload.Workload) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rewardOf(ctx, e, adv, baseAdv, c, w, pert)
}

// rewardOf is RewardOf with f.mu already held (the RL loop calls it from
// inside a locked training step).
func (f *Framework) rewardOf(ctx context.Context, e *engine.Engine, adv advisor.Advisor, baseAdv advisor.Advisor, c advisor.Constraint, w, pert *workload.Workload) (float64, error) {
	u, err := f.originalUtility(ctx, e, adv, baseAdv, c, w)
	if err != nil {
		return 0, err
	}
	return f.perturbedReward(ctx, e, adv, baseAdv, c, u, pert)
}

// baselineFor computes the Ib baseline configuration for a target
// workload (nil baseline advisor: the null configuration).
func (f *Framework) baselineFor(e *engine.Engine, baseAdv advisor.Advisor, c advisor.Constraint, target *workload.Workload) schema.Config {
	if baseAdv == nil {
		return nil
	}
	cfg, err := baseAdv.Recommend(e, target, c)
	if err != nil {
		return nil
	}
	return cfg
}

// originalUtility returns the advisor's memoized utility on the original
// workload, erroring when it does not exceed θ (Definition 3.3 — such
// workloads are skipped). It reads and writes uCache, so callers must
// hold f.mu; the RL loop calls it once per workload before rollouts fan
// out, which is also what warms any lazily initialized advisor state.
func (f *Framework) originalUtility(ctx context.Context, e *engine.Engine, adv advisor.Advisor, baseAdv advisor.Advisor, c advisor.Constraint, w *workload.Workload) (float64, error) {
	if f.uCache == nil {
		f.uCache = map[string]float64{}
	}
	key := adv.Name() + "|" + w.Key()
	u, ok := f.uCache[key]
	if !ok {
		cfgW, err := adv.Recommend(e, w, c)
		if err != nil {
			return 0, err
		}
		u = f.utilityOf(ctx, e, w, cfgW, f.baselineFor(e, baseAdv, c, w))
		f.uCache[key] = u
	}
	if u <= f.Theta {
		return 0, fmt.Errorf("core: advisor utility %.3f below theta", u)
	}
	return u, nil
}

// perturbedReward computes the clamped IUDR reward of one perturbed
// workload given the original's utility u. It touches no mutable
// framework state — only the engine, advisors and utility model, which
// are safe for concurrent use once training has begun — so rollout
// workers call it concurrently without holding f.mu.
func (f *Framework) perturbedReward(ctx context.Context, e *engine.Engine, adv advisor.Advisor, baseAdv advisor.Advisor, c advisor.Constraint, u float64, pert *workload.Workload) (float64, error) {
	cfgP, err := adv.Recommend(e, pert, c)
	if err != nil {
		return 0, err
	}
	uPert := f.utilityOf(ctx, e, pert, cfgP, f.baselineFor(e, baseAdv, c, pert))
	r := workload.IUDR(u, uPert)
	if r > 2 {
		r = 2
	}
	if r < -2 {
		r = -2
	}
	return r, nil
}

// RLTrain runs reinforced perturbation policy learning against an advisor
// (Equation 6): sampled perturbations are rewarded by the IUDR they
// inflict, with the greedy decode as the self-critic baseline. Returns
// the per-epoch mean sampled reward trace (for the epochs it ran).
//
// Training starts at StartEpoch (0 unless restored by LoadCheckpoint)
// and re-seeds the RNG at every epoch boundary, so a resumed run is
// bit-identical to an uninterrupted one. Cancellation is honored between
// epochs and between workloads; EpochHook runs after each epoch.
func (f *Framework) RLTrain(ctx context.Context, e *engine.Engine, adv advisor.Advisor, baseAdv advisor.Advisor, c advisor.Constraint, train []*workload.Workload, epochs int) (rewards []float64, err error) {
	ctx, tsp := trace.Start(ctx, "core.rl_train")
	tsp.Str("advisor", adv.Name())
	tsp.Int("workloads", int64(len(train)))
	tsp.Int("epochs", int64(epochs))
	defer func() { tsp.Fail(err); tsp.End() }()
	params := f.Model.Params()
	if params == nil {
		return nil, fmt.Errorf("core: model %s is not trainable", f.Model.Name())
	}
	f.mu.Lock()
	if f.opt == nil {
		f.opt = nn.NewAdam(f.LR)
	}
	opt := f.opt
	f.mu.Unlock()
	batch := f.Batch
	if batch < 1 {
		batch = 1
	}
	workers := f.rolloutWorkers()
	// Per-epoch training statistics, recorded as float attributes of
	// each rl.epoch span under their series names. They are accumulated
	// only when the run is traced, so the untraced path pays nothing:
	// the rollout allocation budget and the scaling gates train
	// untraced. The reduce below is sequential, so the accumulators
	// need no locking.
	stats := tsp != nil
	type epStats struct {
		loss     float64 // advantage-weighted cross-entropy, summed
		steps    int     // decode steps the loss covered
		rsumsq   float64 // sum of squared rollout rewards
		gradNorm float64 // pre-clip global gradient norms, summed
		updates  int     // optimizer steps taken
		entropy  float64 // policy entropy, summed over decode steps
		entSteps int
		ok       int // rollouts that produced a reward
		rolls    int // rollouts attempted
	}
	var tstats epStats
	var entScratch []float64
	// step trains on one workload under the framework lock and returns
	// its contribution to the epoch's sampled-reward mean. A non-nil
	// error means training was canceled mid-rollout; no partial gradient
	// is ever applied in that case.
	step := func(ctx context.Context, epoch, wi int, w *workload.Workload) (float64, int, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		// Sequential prologue: the greedy self-critic baseline (no
		// gradients, consumes no randomness). Decoding it first also
		// registers any unseen vocabulary tokens, triggers lazy advisor
		// initialization and fills the utility cache deterministically,
		// so the fanned-out rollouts below only read that shared state.
		// Its decodes also compute each query's encoder pass, which every
		// trajectory begins from and backpropagates through, so the
		// greedy graph is reset only once the reduce below is done.
		if f.greedyG == nil {
			f.greedyG = nn.NewGraph(false)
		}
		gb := f.greedyG
		defer gb.Reset()
		greedy := &workload.Workload{}
		passes := make([]*encPass, len(w.Items))
		for k, it := range w.Items {
			r, err := Decode(gb, f.Model, f.Vocab, it.Query, f.Constraint, f.Eps, false, f.rng)
			if err != nil {
				return 0, 0, nil
			}
			greedy.Items = append(greedy.Items, workload.Item{Query: r.Query, Weight: it.Weight})
			passes[k] = r.pass
		}
		u, uErr := f.originalUtility(ctx, e, adv, baseAdv, c, w)
		if uErr != nil {
			// Below-θ workloads are skipped entirely (Definition 3.3).
			return 0, 0, nil
		}
		rb, rbErr := f.perturbedReward(ctx, e, adv, baseAdv, c, u, greedy)
		if rbErr != nil {
			return 0, 0, nil
		}
		// Fan the B sampled trajectories of Equation 6 across the
		// rollout pool. Each trajectory decodes forward on its own graph
		// with its own deterministic RNG stream and scores its reward;
		// a failed decode or reward skips that trajectory (ok stays
		// false), mirroring the sequential behavior.
		rolls := make([]rollout, batch)
		graphs := f.rollGraphs(batch)
		es := f.epochSeed(epoch)
		ctx, bsp := trace.Start(ctx, "rl.rollout_batch")
		bsp.Int("workload", int64(wi))
		bsp.Int("batch", int64(batch))
		rerr := par.ForEach(ctx, workers, batch, func(b int) error {
			if err := faultinject.Fire(f.Inject, faultinject.PointRollout); err != nil {
				return err
			}
			g := graphs[b]
			rolls[b].g = g
			rng := rand.New(rand.NewSource(trajSeed(es, int64(wi), int64(b))))
			pert := &workload.Workload{}
			var steps []DecStep
			for k, it := range w.Items {
				if err := ctx.Err(); err != nil {
					return err
				}
				r, err := decodeFrom(g, f.Model, f.Vocab, it.Query, f.Constraint, f.Eps, true, rng, passes[k])
				if err != nil {
					return nil
				}
				pert.Items = append(pert.Items, workload.Item{Query: r.Query, Weight: it.Weight})
				steps = append(steps, r.Steps...)
			}
			r, err := f.perturbedReward(ctx, e, adv, baseAdv, c, u, pert)
			if err != nil {
				return nil
			}
			mRollouts.Inc()
			rolls[b].steps, rolls[b].r, rolls[b].ok = steps, r, true
			return nil
		})
		// In-order reduce: losses are seeded and backpropagated strictly
		// in trajectory order b = 0..B-1, so the floating-point
		// accumulation into the shared gradients — and therefore the
		// trained parameters — is bit-identical for every worker count.
		updated := false
		var sum float64
		var n int
		for b := range rolls {
			ro := &rolls[b]
			if rerr == nil && ro.ok {
				if stats {
					// Policy entropy, no-grad: Softmax into a reused
					// scratch slice so instrumentation adds no steady-state
					// allocation to the reduce.
					for _, st := range ro.steps {
						entScratch = nn.SoftmaxInto(entScratch, st.Logits)
						var h float64
						for _, p := range entScratch {
							if p > 0 {
								h -= p * math.Log(p)
							}
						}
						tstats.entropy += h
						tstats.entSteps++
					}
					tstats.rsumsq += ro.r * ro.r
				}
				advantage := (ro.r - rb) / float64(batch)
				if advantage != 0 {
					for _, st := range ro.steps {
						l := nn.CrossEntropy(st.Logits, st.Chosen, advantage)
						if stats {
							tstats.loss += l
							tstats.steps++
						}
					}
					ro.g.Backward()
					updated = true
				}
				sum += ro.r
				n++
			}
			if ro.g != nil {
				ro.g.Reset() // drops any half-built tape, recycles the arena
			}
		}
		bsp.Int("ok", int64(n))
		bsp.Fail(rerr)
		bsp.End()
		if rerr != nil {
			// Canceled mid-rollout: the graphs above were reset without
			// Backward, so parameters and gradients are untouched and
			// the framework stays fully usable.
			return 0, 0, rerr
		}
		if updated {
			norm := params.ClipGrads(5)
			if stats {
				tstats.gradNorm += norm
				tstats.updates++
			}
			opt.Step(params)
		}
		if stats {
			tstats.ok += n
			tstats.rolls += batch
		}
		return sum, n, nil
	}
	for ep := f.StartEpoch; ep < epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return rewards, err
		}
		if err := faultinject.Fire(f.Inject, faultinject.PointRLEpoch); err != nil {
			return rewards, err
		}
		ectx, esp := trace.Start(ctx, "rl.epoch")
		esp.Int("epoch", int64(ep))
		f.mu.Lock()
		f.rng = rand.New(rand.NewSource(f.epochSeed(ep)))
		f.mu.Unlock()
		var sum float64
		var n int
		for wi, w := range train {
			if err := ectx.Err(); err != nil {
				esp.Fail(err)
				esp.End()
				return rewards, err
			}
			if err := faultinject.Fire(f.Inject, faultinject.PointRLWorkload); err != nil {
				esp.Fail(err)
				esp.End()
				return rewards, err
			}
			ws, wn, err := step(ectx, ep, wi, w)
			if err != nil {
				esp.Fail(err)
				esp.End()
				return rewards, err
			}
			sum += ws
			n += wn
		}
		if n > 0 {
			rewards = append(rewards, sum/float64(n))
		} else {
			rewards = append(rewards, 0)
		}
		mean := rewards[len(rewards)-1]
		esp.Float("rl_mean_reward", mean)
		if stats {
			if n > 0 {
				v := tstats.rsumsq/float64(n) - mean*mean
				if v < 0 {
					v = 0
				}
				esp.Float("rl_reward_var", v)
			}
			if tstats.steps > 0 {
				esp.Float("rl_loss", tstats.loss/float64(tstats.steps))
			}
			if tstats.updates > 0 {
				esp.Float("rl_grad_norm", tstats.gradNorm/float64(tstats.updates))
			}
			if tstats.entSteps > 0 {
				esp.Float("rl_entropy", tstats.entropy/float64(tstats.entSteps))
			}
			if tstats.rolls > 0 {
				esp.Float("rl_rollout_ok_ratio", float64(tstats.ok)/float64(tstats.rolls))
			}
			tstats = epStats{}
		}
		esp.End()
		if f.EpochHook != nil {
			_, csp := trace.Start(ctx, "rl.checkpoint")
			csp.Int("epoch", int64(ep))
			err := f.EpochHook(ep)
			csp.Fail(err)
			csp.End()
			if err != nil {
				return rewards, err
			}
		}
	}
	return rewards, nil
}

// SaveModel persists the trained generation model's parameters to w; a
// framework rebuilt with the same vocabulary, sizes and model kind can
// LoadModel them back.
func (f *Framework) SaveModel(w io.Writer) error {
	p := f.Model.Params()
	if p == nil {
		return fmt.Errorf("core: model %s has no parameters to save", f.Model.Name())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return p.Save(w)
}

// LoadModel restores parameters persisted by SaveModel.
func (f *Framework) LoadModel(r io.Reader) error {
	p := f.Model.Params()
	if p == nil {
		return fmt.Errorf("core: model %s has no parameters to load", f.Model.Name())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return p.Load(r)
}

// Generate produces the adversarial workload W' for w by greedy decoding
// with the trained policy. Greedy decoding is deterministic and does not
// consume the shared RNG, so Generate may run concurrently with training
// without perturbing it.
func (f *Framework) Generate(ctx context.Context, w *workload.Workload) (*workload.Workload, error) {
	if err := faultinject.Fire(f.Inject, faultinject.PointGenerate); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return perturbWorkloadOn(ctx, f.generateGraph(), f.Model, f.Vocab, w, f.Constraint, f.Eps, false, f.rng)
}

// generateGraph lazily builds the persistent inference graph shared by
// the Generate paths. Callers must hold f.mu.
func (f *Framework) generateGraph() *nn.Graph {
	if f.genG == nil {
		f.genG = nn.NewGraph(false)
	}
	return f.genG
}

// GenerateSampled produces a randomized perturbation (used by the Random
// baseline's repeated attempts).
func (f *Framework) GenerateSampled(ctx context.Context, w *workload.Workload) (*workload.Workload, error) {
	if err := faultinject.Fire(f.Inject, faultinject.PointGenerate); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return perturbWorkloadOn(ctx, f.generateGraph(), f.Model, f.Vocab, w, f.Constraint, f.Eps, true, f.rng)
}

// GenerateSeeded is GenerateSampled with a private RNG stream derived
// from the framework seed and the caller's salt, so repeated attempts
// are reproducible and independent of the shared training RNG —
// parallel assessment cells use it so measurement stays deterministic
// regardless of cell execution order.
func (f *Framework) GenerateSeeded(ctx context.Context, w *workload.Workload, salt int64) (*workload.Workload, error) {
	if err := faultinject.Fire(f.Inject, faultinject.PointGenerate); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(trajSeed(f.seed, salt, 0)))
	f.mu.Lock()
	defer f.mu.Unlock()
	return perturbWorkloadOn(ctx, f.generateGraph(), f.Model, f.Vocab, w, f.Constraint, f.Eps, true, rng)
}
