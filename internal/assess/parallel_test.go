package assess

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/workload"
)

// TestMeasureBitIdenticalAcrossWorkers verifies the assessment analogue
// of the rollout-pool guarantee: MeasureOn's per-workload cells fan out
// across MeasureWorkers, yet the Assessment — pair list, per-cell means
// and MeanIUDR — is bit-identical for every worker count. Random's
// multiple attempts exercise the seeded variant path (VariantsAt), whose
// determinism is what makes the cells order-independent.
func TestMeasureBitIdenticalAcrossWorkers(t *testing.T) {
	s := tinySuite(t)
	ctx := context.Background()
	adv := &advisor.Extend{Opt: advisor.DefaultOptions()}
	m, err := s.BuildMethod(ctx, "Random", core.ValueOnly, adv, nil, s.Storage, MethodConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var want *Assessment
	for _, workers := range []int{1, 2, 4} {
		s.MeasureWorkers = workers
		got, err := s.Measure(ctx, m, adv, nil, s.Storage)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = got
			continue
		}
		if got.MeanIUDR != want.MeanIUDR || got.N != want.N {
			t.Errorf("workers=%d: MeanIUDR/N = %v/%d, want %v/%d",
				workers, got.MeanIUDR, got.N, want.MeanIUDR, want.N)
		}
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got.Pairs), len(want.Pairs))
		}
		// Compare pair contents, not structs: sqlx.Query memoizes plans in
		// unexported fields that reflect.DeepEqual would drag in.
		for i := range got.Pairs {
			g, w := got.Pairs[i], want.Pairs[i]
			if g.Orig != w.Orig || g.Pert.Key() != w.Pert.Key() ||
				g.U != w.U || g.UPert != w.UPert || g.IUDR != w.IUDR ||
				g.NonSargable != w.NonSargable {
				t.Errorf("workers=%d: pair %d diverged from sequential measurement", workers, i)
			}
		}
	}
}

// cancelOnRecommend cancels the measurement's context from inside its
// recommendation for one workload, as a cancel landing during that
// workload's utility call would.
type cancelOnRecommend struct {
	advisor.Advisor
	at     *workload.Workload
	cancel context.CancelFunc
}

func (a cancelOnRecommend) Recommend(e *engine.Engine, w *workload.Workload, c advisor.Constraint) (schema.Config, error) {
	if w == a.at {
		a.cancel()
	}
	return a.Advisor.Recommend(e, w, c)
}

// TestMeasureCanceledInLastCell: a cancel that lands while the last cell
// is inside its utility call makes Measure return the context's error,
// not an assessment over the workloads measured before it.
func TestMeasureCanceledInLastCell(t *testing.T) {
	s := tinySuite(t)
	adv := &advisor.Extend{Opt: advisor.DefaultOptions()}
	m, err := s.BuildMethod(context.Background(), "Random", core.ValueOnly, adv, nil, s.Storage, MethodConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		s.MeasureWorkers = workers
		ctx, cancel := context.WithCancel(context.Background())
		ca := cancelOnRecommend{Advisor: adv, at: s.Test[len(s.Test)-1], cancel: cancel}
		_, err := s.Measure(ctx, m, ca, nil, s.Storage)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: Measure err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestVariantsAtDeterministic: the same (workload, salt) always yields
// the same variants; Variants' shared-RNG draws stay available for the
// legacy sequential path.
func TestVariantsAtDeterministic(t *testing.T) {
	s := tinySuite(t)
	ctx := context.Background()
	adv := &advisor.Extend{Opt: advisor.DefaultOptions()}
	m, err := s.BuildMethod(ctx, "Random", core.ValueOnly, adv, nil, s.Storage, MethodConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.VariantsAt(ctx, s.Test[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.VariantsAt(ctx, s.Test[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != s.P.RandomAttempts || len(a) != len(b) {
		t.Fatalf("attempt counts %d/%d, want %d", len(a), len(b), s.P.RandomAttempts)
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Errorf("attempt %d not reproducible:\n  %s\n  %s", i, a[i].Key(), b[i].Key())
		}
	}
}

// TestBuildMethodBitIdenticalAcrossTrainWorkers: the suite's TrainWorkers
// knob reaches the framework rollout pool, and method training stays
// bit-identical across pool sizes.
func TestBuildMethodBitIdenticalAcrossTrainWorkers(t *testing.T) {
	s := tinySuite(t)
	ctx := context.Background()
	adv := &advisor.Extend{Opt: advisor.DefaultOptions()}
	// Warm-up build: training registers unseen tokens in the shared
	// vocabulary, and a model's embedding size snapshots the vocab size at
	// build time, so only builds after the first start from identical
	// parameters (same reason TestCheckpointResumeEquivalence builds all
	// frameworks upfront).
	if _, err := s.BuildMethod(ctx, "GRU", core.ValueOnly, adv, nil, s.Storage, MethodConfig{}); err != nil {
		t.Fatal(err)
	}
	var wantTrace []float64
	var wantState any
	for i, workers := range []int{1, 3} {
		s.TrainWorkers = workers
		m, err := s.BuildMethod(ctx, "GRU", core.ValueOnly, adv, nil, s.Storage, MethodConfig{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		state := m.FW.Model.Params().State()
		if i == 0 {
			wantTrace, wantState = m.Trace, state
			continue
		}
		if !reflect.DeepEqual(m.Trace, wantTrace) {
			t.Errorf("workers=%d: reward trace diverged: %v vs %v", workers, m.Trace, wantTrace)
		}
		if !reflect.DeepEqual(state, wantState) {
			t.Errorf("workers=%d: trained parameters diverged", workers)
		}
	}
}
