package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/workload"
)

// trainFixture bundles the pieces every training test needs.
type trainFixture struct {
	f     *coreFixture
	adv   advisor.Advisor
	c     advisor.Constraint
	train []*workload.Workload
}

func newTrainFixture(t testing.TB) *trainFixture {
	f := newCoreFixture(t)
	var train []*workload.Workload
	for i := 0; i < 3; i++ {
		train = append(train, f.gen.Workload(3))
	}
	return &trainFixture{
		f:     f,
		adv:   &advisor.Extend{Opt: advisor.DefaultOptions()},
		c:     advisor.Constraint{StorageBytes: f.e.Schema().TotalSizeBytes() / 2},
		train: train,
	}
}

// buildFW constructs a framework with a freshly seeded model, so two
// calls with the same arguments start from identical parameters.
func (tf *trainFixture) buildFW(model string, seed int64) *Framework {
	rng := rand.New(rand.NewSource(seed))
	var m Scorer
	switch model {
	case "TRAP":
		m = NewTRAPModel(tf.f.v, Sizes{Embed: 16, Hidden: 16}, rng)
	case "GRU":
		m = NewGRUModel(tf.f.v, Sizes{Embed: 16, Hidden: 16}, rng)
	case "Seq2Seq":
		m = NewSeq2Seq(tf.f.v, Sizes{Embed: 16, Hidden: 16}, rng)
	}
	fw := NewFramework(m, tf.f.v, SharedTable, seed+100)
	fw.Theta = 0.02
	return fw
}

func TestRLTrainCancelsAtEpochBoundary(t *testing.T) {
	tf := newTrainFixture(t)
	fw := tf.buildFW("GRU", 50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel after the first completed epoch; training must stop at the
	// next epoch boundary instead of running all five.
	fw.EpochHook = func(int) error { cancel(); return nil }
	trace, err := fw.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(trace) != 1 {
		t.Fatalf("trained %d epochs after cancel, want 1", len(trace))
	}
}

func TestPretrainHonorsCancellation(t *testing.T) {
	tf := newTrainFixture(t)
	fw := tf.buildFW("TRAP", 51)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.Pretrain(ctx, tf.f.gen, 4, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGenerateHonorsCancellation(t *testing.T) {
	tf := newTrainFixture(t)
	fw := tf.buildFW("GRU", 52)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.Generate(ctx, tf.train[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckpointResumeEquivalence is the core resume guarantee: training
// that is interrupted, checkpointed, and resumed in a fresh framework
// must produce bit-identical parameters (and reward trace) to an
// uninterrupted run with the same seed.
func TestCheckpointResumeEquivalence(t *testing.T) {
	tf := newTrainFixture(t)
	const totalEpochs, stopAfter = 4, 2
	ctx := context.Background()
	for _, model := range []string{"TRAP", "GRU", "Seq2Seq"} {
		t.Run(model, func(t *testing.T) {
			// Build all three frameworks before any training: training
			// registers unseen tokens in the shared vocabulary, and a
			// model's embedding size snapshots the vocab size at build
			// time, so later builds would start from different parameters.
			ref := tf.buildFW(model, 60)
			half := tf.buildFW(model, 60)
			res := tf.buildFW(model, 60)

			// Uninterrupted reference run.
			refTrace, err := ref.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, totalEpochs)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: stop after two epochs and checkpoint.
			halfTrace, err := half.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, stopAfter)
			if err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := half.SaveCheckpoint(&ckpt, stopAfter); err != nil {
				t.Fatal(err)
			}

			// Resume into a fresh, identically constructed framework.
			ep, err := res.LoadCheckpoint(ckpt.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if ep != stopAfter || res.StartEpoch != stopAfter {
				t.Fatalf("restored epoch %d / StartEpoch %d, want %d", ep, res.StartEpoch, stopAfter)
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
		})
	}
}

// sameBits reports whether two float slices hold the same values bit
// for bit (reflect.DeepEqual would take -0 for +0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSameTraining fails unless got's parameters, Adam step count and
// Adam moments equal want's bit for bit, and got's optimizer has
// stepped exactly the tensors want's has.
func checkSameTraining(t *testing.T, want, got *Framework) {
	t.Helper()
	wt, gt := want.Model.Params().Tensors(), got.Model.Params().Tensors()
	if len(wt) != len(gt) {
		t.Fatalf("%d tensors, want %d", len(gt), len(wt))
	}
	for i := range wt {
		if !sameBits(wt[i].W, gt[i].W) {
			t.Fatalf("parameter tensor %d differs from the uninterrupted run", i)
		}
	}
	if ws, gs := want.opt.Steps(), got.opt.Steps(); ws != gs {
		t.Fatalf("Adam step %d, want %d", gs, ws)
	}
	for i := range wt {
		wm, wv := want.opt.Moments(wt[i])
		gm, gv := got.opt.Moments(gt[i])
		if (wm == nil) != (gm == nil) || !sameBits(wm, gm) || !sameBits(wv, gv) {
			t.Fatalf("Adam moments of tensor %d differ from the uninterrupted run", i)
		}
	}
}

// TestConcurrentGenerateDuringTraining exercises the framework's
// concurrency contract under -race: greedy Generate calls run while
// Pretrain and RLTrain mutate the model.
func TestConcurrentGenerateDuringTraining(t *testing.T) {
	tf := newTrainFixture(t)
	fw := tf.buildFW("TRAP", 70)
	ctx := context.Background()
	w := tf.train[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fw.Generate(ctx, w); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	if _, err := fw.Pretrain(ctx, tf.f.gen, 4, 1); err != nil {
		t.Error(err)
	}
	if _, err := fw.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 2); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
}

func TestRLTrainInjectedTransientError(t *testing.T) {
	tf := newTrainFixture(t)
	fw := tf.buildFW("GRU", 80)
	fw.Inject = faultinject.NewSeeded(1, faultinject.Rule{
		Point: faultinject.PointRLEpoch, Action: faultinject.ActError, Every: 1, After: 1, Count: 1,
	})
	trace, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 3)
	if err == nil {
		t.Fatal("expected injected error")
	}
	var ie *faultinject.Error
	if !errors.As(err, &ie) || ie.Point != faultinject.PointRLEpoch {
		t.Fatalf("err = %v, want the injected *faultinject.Error at %s", err, faultinject.PointRLEpoch)
	}
	if len(trace) != 1 {
		t.Fatalf("trained %d epochs before the injected fault, want 1", len(trace))
	}
	// The rule is exhausted: a retry of the same call completes.
	if _, err := fw.RLTrain(context.Background(), tf.f.e, tf.adv, nil, tf.c, tf.train, 3); err != nil {
		t.Fatalf("retry after exhausted rule: %v", err)
	}
}
