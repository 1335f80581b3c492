package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/trap-repro/trap/internal/faultinject"
)

// TestRLTrainBitIdenticalAcrossWorkers is the tentpole guarantee of the
// parallel rollout pool: the trained parameters and reward traces are
// bit-identical whether the B trajectories of a step run sequentially or
// across 2 or 4 workers, because every trajectory owns a seed-derived
// RNG stream and the gradient reduce is strictly in trajectory order.
// The encoder models also share one encoder pass per query across the
// pool. Run under -race this also exercises the pool for data races.
func TestRLTrainBitIdenticalAcrossWorkers(t *testing.T) {
	tf := newTrainFixture(t)
	ctx := context.Background()
	counts := []int{1, 2, 4}
	for _, model := range []string{"GRU", "TRAP", "Seq2Seq"} {
		t.Run(model, func(t *testing.T) {
			// Build every framework before any training (training
			// registers unseen tokens in the shared vocabulary; see
			// TestCheckpointResumeEquivalence).
			fws := make([]*Framework, len(counts))
			for i := range counts {
				fws[i] = tf.buildFW(model, 90)
				fws[i].Batch = 5 // more trajectories than some worker counts
				fws[i].RolloutWorkers = counts[i]
			}
			var wantTrace []float64
			var wantState any
			for i, fw := range fws {
				trace, err := fw.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 2)
				if err != nil {
					t.Fatalf("workers=%d: %v", counts[i], err)
				}
				state := fw.Model.Params().State()
				if i == 0 {
					wantTrace, wantState = trace, state
					continue
				}
				if !reflect.DeepEqual(trace, wantTrace) {
					t.Errorf("workers=%d reward trace diverged from workers=1:\n  %v\n  %v",
						counts[i], trace, wantTrace)
				}
				if !reflect.DeepEqual(state, wantState) {
					t.Errorf("workers=%d trained parameters diverged from workers=1", counts[i])
				}
			}
		})
	}
}

// encodesAlone wraps a model and exposes only the Scorer methods, so
// the trainer cannot share an encoder pass and every trajectory encodes
// its queries itself.
type encodesAlone struct{ Scorer }

// TestRLTrainSharedPassMatchesOwnEncode pins the shared encoder pass:
// training an encoder model whose trajectories begin from the greedy
// decode's pass must give the parameters and reward trace of the same
// model with every trajectory encoding for itself, bit for bit.
func TestRLTrainSharedPassMatchesOwnEncode(t *testing.T) {
	tf := newTrainFixture(t)
	ctx := context.Background()
	for _, model := range []string{"TRAP", "Seq2Seq"} {
		t.Run(model, func(t *testing.T) {
			shared := tf.buildFW(model, 94)
			alone := tf.buildFW(model, 94)
			if _, ok := shared.Model.(passScorer); !ok {
				t.Fatalf("%s does not share its encoder pass", model)
			}
			alone.Model = encodesAlone{alone.Model}
			for _, fw := range []*Framework{shared, alone} {
				fw.Batch = 3
				fw.RolloutWorkers = 2
			}
			wantTrace, err := alone.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 2)
			if err != nil {
				t.Fatal(err)
			}
			gotTrace, err := shared.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Errorf("reward trace diverged:\n  shared pass: %v\n  own encode:  %v", gotTrace, wantTrace)
			}
			if !reflect.DeepEqual(shared.Model.Params().State(), alone.Model.Params().State()) {
				t.Error("shared-pass parameters differ from per-trajectory encoding")
			}
		})
	}
}

// TestCheckpointResumeEquivalenceParallelWorkers re-runs the resume
// guarantee with a different rollout worker count in every leg: the
// reference sequential, the interrupted run on 3 workers and the resumed
// run on 2. Worker count must be invisible to the checkpoint contract.
func TestCheckpointResumeEquivalenceParallelWorkers(t *testing.T) {
	tf := newTrainFixture(t)
	const totalEpochs, stopAfter = 4, 2
	ctx := context.Background()
	ref := tf.buildFW("GRU", 60)
	half := tf.buildFW("GRU", 60)
	res := tf.buildFW("GRU", 60)
	ref.RolloutWorkers, half.RolloutWorkers, res.RolloutWorkers = 1, 3, 2

	refTrace, err := ref.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, totalEpochs)
	if err != nil {
		t.Fatal(err)
	}
	halfTrace, err := half.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, stopAfter)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := half.SaveCheckpoint(&ckpt, stopAfter); err != nil {
		t.Fatal(err)
	}
	ep, err := res.LoadCheckpoint(ckpt.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ep != stopAfter {
		t.Fatalf("restored epoch %d, want %d", ep, stopAfter)
	}
	resTrace, err := res.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, totalEpochs)
	if err != nil {
		t.Fatal(err)
	}
	combined := append(append([]float64{}, halfTrace...), resTrace...)
	if !sameBits(refTrace, combined) {
		t.Errorf("reward traces diverged:\n  uninterrupted: %v\n  resumed:       %v", refTrace, combined)
	}
	checkSameTraining(t, ref, res)
}

// TestRolloutFaultLeavesParametersUntouched injects an error into the
// very first trajectory rollout and verifies the no-partial-
// gradient contract: the failed step applies nothing, so a retry of the
// same framework is bit-identical to a framework that never faulted.
func TestRolloutFaultLeavesParametersUntouched(t *testing.T) {
	tf := newTrainFixture(t)
	ctx := context.Background()
	ref := tf.buildFW("GRU", 91)
	fw := tf.buildFW("GRU", 91)
	ref.Batch, fw.Batch = 4, 4
	fw.RolloutWorkers = 3
	fw.Inject = faultinject.NewSeeded(1, faultinject.Rule{
		Point: faultinject.PointRollout, Action: faultinject.ActError, Every: 1, Count: 1,
	})
	trace, err := fw.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 2)
	var ie *faultinject.Error
	if !errors.As(err, &ie) || ie.Point != faultinject.PointRollout {
		t.Fatalf("err = %v, want the injected *faultinject.Error at %s", err, faultinject.PointRollout)
	}
	if len(trace) != 0 {
		t.Fatalf("completed %d epochs through a first-rollout fault, want 0", len(trace))
	}
	refTrace, err := ref.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, err := fw.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 2)
	if err != nil {
		t.Fatalf("retry after exhausted rule: %v", err)
	}
	if !reflect.DeepEqual(gotTrace, refTrace) {
		t.Errorf("retry trace diverged from unfaulted run:\n  %v\n  %v", gotTrace, refTrace)
	}
	if !reflect.DeepEqual(fw.Model.Params().State(), ref.Model.Params().State()) {
		t.Error("mid-rollout fault left partial state: retry parameters diverged")
	}
}

// countdownCtx reports context.Canceled from the n+1-th Err call onward,
// so cancellation lands at whatever cooperative check the countdown
// reaches — including the per-item checks inside rollout workers.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestRLTrainCancelMidTrainingKeepsFrameworkUsable cancels at several
// depths into training (some land inside the rollout fan-out) and
// verifies the framework stays fully usable afterwards.
func TestRLTrainCancelMidTrainingKeepsFrameworkUsable(t *testing.T) {
	tf := newTrainFixture(t)
	for _, n := range []int64{3, 10, 40} {
		fw := tf.buildFW("GRU", 92)
		fw.Batch = 4
		fw.RolloutWorkers = 2
		ctx := &countdownCtx{Context: context.Background()}
		ctx.remaining.Store(n)
		if _, err := fw.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 5); !errors.Is(err, context.Canceled) {
			t.Fatalf("countdown %d: err = %v, want context.Canceled", n, err)
		}
		if _, err := fw.Generate(context.Background(), tf.train[0]); err != nil {
			t.Fatalf("countdown %d: Generate after cancel: %v", n, err)
		}
		if _, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 1); err != nil {
			t.Fatalf("countdown %d: RLTrain after cancel: %v", n, err)
		}
	}
}

// TestGenerateSeededDeterministic: the same salt reproduces the same
// perturbation; the shared training RNG is not consumed.
func TestGenerateSeededDeterministic(t *testing.T) {
	tf := newTrainFixture(t)
	fw := tf.buildFW("GRU", 93)
	ctx := context.Background()
	w := tf.train[0]
	a, err := fw.GenerateSeeded(ctx, w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.GenerateSeeded(ctx, w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("same salt produced different workloads:\n  %s\n  %s", a.Key(), b.Key())
	}
	c, err := fw.GenerateSeeded(ctx, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() == a.Key() {
		t.Log("salt 8 matched salt 7 (possible but unexpected for a sampled decode)")
	}
}
