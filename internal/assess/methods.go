package assess

import (
	"context"
	"fmt"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/trace"
	"github.com/trap-repro/trap/internal/workload"
)

// MethodNames lists the four workload generation methods of Section V-B
// in paper order.
var MethodNames = []string{"Random", "GRU", "Seq2Seq", "TRAP"}

// Method is a generation method trained (where applicable) against a
// specific advisor under a perturbation constraint.
type Method struct {
	Name     string
	FW       *core.Framework
	Attempts int // >1 for Random: extra sampled variants, averaged
	// Trace is the RL reward trace recorded during training.
	Trace []float64
	// Resumed reports whether training continued from a checkpoint
	// (MethodConfig.Resume) instead of starting fresh.
	Resumed bool
}

// MethodConfig tweaks method construction for the ablations.
type MethodConfig struct {
	// NoPretrain skips the pretraining phase (Figure 8b).
	NoPretrain bool
	// NoCostModel uses raw what-if estimates as the reward (Figure 8a).
	NoCostModel bool
	// Model overrides the generation model (PLM variants of Figure 7).
	Model core.Scorer
	// RLEpochs overrides the training epochs.
	RLEpochs int
	// Eps overrides the edit budget.
	Eps int
	// Theta overrides the utility threshold.
	Theta float64

	// EpochHook, when non-nil, runs after every completed RL epoch with
	// the framework and the epoch index — trapd's checkpointing hook.
	// A non-nil return aborts training with that error.
	EpochHook func(fw *core.Framework, epoch int) error
	// Resume, when non-nil, is a checkpoint written by
	// core.Framework.SaveCheckpoint: training restores it and continues
	// from the checkpointed epoch. An unreadable or mismatched
	// checkpoint falls back to fresh training (resume is best-effort —
	// a corrupt spool file must not fail the job).
	Resume []byte
}

// BuildMethod constructs and trains a generation method against an
// advisor. TRAP gets pretraining (cached per constraint: it is an
// advisor-independent one-time effort) and the learned-utility reward;
// GRU and Seq2Seq are RL-trained with the same reward but without
// attention/pretraining; Random needs no training. Cancellation via ctx
// interrupts pretraining and RL training at epoch/workload boundaries.
func (s *Suite) BuildMethod(ctx context.Context, name string, pc core.PerturbConstraint, adv advisor.Advisor, base advisor.Advisor, ac advisor.Constraint, mc MethodConfig) (mth *Method, err error) {
	ctx, tsp := trace.Start(ctx, "assess.build_method")
	ctx, restore := trace.Layer(ctx, "train")
	defer restore()
	tsp.Str("method", name)
	tsp.Str("advisor", adv.Name())
	defer func() { tsp.Fail(err); tsp.End() }()
	epochs := s.P.RLEpochs
	if mc.RLEpochs > 0 {
		epochs = mc.RLEpochs
	}
	newFW := func(m core.Scorer) *core.Framework {
		fw := core.NewFramework(m, s.Vocab, pc, s.Seed+int64(pc)*31)
		fw.Eps = s.P.Eps
		if mc.Eps > 0 {
			fw.Eps = mc.Eps
		}
		fw.Theta = s.P.Theta
		if mc.Theta != 0 {
			fw.Theta = mc.Theta
		}
		if !mc.NoCostModel {
			fw.Utility = s.Utility
		}
		fw.Inject = s.Inject
		fw.RolloutWorkers = s.TrainWorkers
		if mc.EpochHook != nil {
			hook := mc.EpochHook
			fw.EpochHook = func(epoch int) error { return hook(fw, epoch) }
		}
		return fw
	}
	// resume restores a checkpoint into fw; it reports whether the
	// restore succeeded (failure means train from scratch).
	resume := func(fw *core.Framework) bool {
		if mc.Resume == nil {
			return false
		}
		if _, err := fw.LoadCheckpoint(mc.Resume); err != nil {
			return false
		}
		return true
	}
	rng := s.rng(int64(pc) + 7)
	switch name {
	case "Random":
		fw := newFW(core.RandomModel{})
		return &Method{Name: name, FW: fw, Attempts: s.P.RandomAttempts}, nil
	case "GRU":
		fw := newFW(core.NewGRUModel(s.Vocab, s.P.Sizes, rng))
		resumed := resume(fw)
		rewards, err := fw.RLTrain(ctx, s.E, adv, base, ac, s.Train, epochs)
		if err != nil {
			return nil, err
		}
		return &Method{Name: name, FW: fw, Attempts: 1, Trace: rewards, Resumed: resumed}, nil
	case "Seq2Seq":
		fw := newFW(core.NewSeq2Seq(s.Vocab, s.P.Sizes, rng))
		resumed := resume(fw)
		rewards, err := fw.RLTrain(ctx, s.E, adv, base, ac, s.Train, epochs)
		if err != nil {
			return nil, err
		}
		return &Method{Name: name, FW: fw, Attempts: 1, Trace: rewards, Resumed: resumed}, nil
	case "TRAP":
		model := core.NewTRAPModel(s.Vocab, s.P.Sizes, rng)
		fw := newFW(model)
		// A successful resume restores post-pretraining parameters, so
		// the pretraining phase is skipped along with completed epochs.
		resumed := resume(fw)
		if !resumed && !mc.NoPretrain {
			if err := s.pretrainInto(ctx, fw, model, pc); err != nil {
				return nil, err
			}
		}
		rewards, err := fw.RLTrain(ctx, s.E, adv, base, ac, s.Train, epochs)
		if err != nil {
			return nil, err
		}
		return &Method{Name: name, FW: fw, Attempts: 1, Trace: rewards, Resumed: resumed}, nil
	default:
		if mc.Model == nil {
			return nil, fmt.Errorf("assess: unknown method %q", name)
		}
		fw := newFW(mc.Model)
		resumed := resume(fw)
		rewards, err := fw.RLTrain(ctx, s.E, adv, base, ac, s.Train, epochs)
		if err != nil {
			return nil, err
		}
		return &Method{Name: name, FW: fw, Attempts: 1, Trace: rewards, Resumed: resumed}, nil
	}
}

// pretrainInto applies the advisor-independent pretraining phase to a
// TRAP model, reusing a cached encoder snapshot per constraint. The
// suite lock serializes concurrent builders: the first one pretrains,
// later ones (and concurrent jobs on other advisors) reuse the snapshot.
// It also protects Gen's RNG, which Pretrain samples pairs from.
func (s *Suite) pretrainInto(ctx context.Context, fw *core.Framework, model *core.TRAPModel, pc core.PerturbConstraint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap, ok := s.pretrained[pc]; ok {
		model.EncoderParams().SetState(snap)
		return nil
	}
	if _, err := fw.Pretrain(ctx, s.Gen, s.P.PretrainPairs, s.P.PretrainEpochs); err != nil {
		return err
	}
	s.pretrained[pc] = model.EncoderParams().State()
	return nil
}

// Variants produces the method's perturbed workload(s) for a test
// workload: one greedy decode for trained models, Attempts sampled
// decodes for Random.
func (m *Method) Variants(ctx context.Context, w *workload.Workload) ([]*workload.Workload, error) {
	if m.Attempts <= 1 {
		p, err := m.FW.Generate(ctx, w)
		if err != nil {
			return nil, err
		}
		return []*workload.Workload{p}, nil
	}
	var out []*workload.Workload
	for i := 0; i < m.Attempts; i++ {
		p, err := m.FW.GenerateSampled(ctx, w)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// VariantsAt is Variants with a deterministic salt: sampled attempts
// draw from private RNG streams derived from (framework seed, salt,
// attempt) instead of the shared training RNG, so parallel assessment
// cells produce the same variants regardless of execution order.
func (m *Method) VariantsAt(ctx context.Context, w *workload.Workload, salt int64) ([]*workload.Workload, error) {
	if m.Attempts <= 1 {
		p, err := m.FW.Generate(ctx, w)
		if err != nil {
			return nil, err
		}
		return []*workload.Workload{p}, nil
	}
	var out []*workload.Workload
	for i := 0; i < m.Attempts; i++ {
		p, err := m.FW.GenerateSeeded(ctx, w, salt*1_000_003+int64(i))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
