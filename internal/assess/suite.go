// Package assess is the robustness-assessment harness: it wires datasets,
// advisors, generation methods and metrics together and provides one
// driver per table and figure of the paper's evaluation (Section V) and
// analysis (Section VI). The cmd/experiments binary and the repository's
// benchmarks are thin wrappers over these drivers.
package assess

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/obs"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/trace"
	"github.com/trap-repro/trap/internal/workload"
)

// Assessment-phase metrics, aggregated across suites. The advisor
// build, method build and measurement are timed by their trace spans.
var (
	mRecommendSecs    = obs.Default().Histogram("advisor_recommend_seconds")
	mRecommendCalls   = obs.Default().Counter("advisor_recommend_total")
	mPairsMeasured    = obs.Default().Counter("assess_pairs_total")
	mPairsNonSargable = obs.Default().Counter("assess_pairs_nonsargable_total")
)

// Params scales every experiment: the defaults used by tests and
// benchmarks (QuickParams) finish in seconds; FullParams approaches the
// paper's setup and is meant for the CLI.
type Params struct {
	ScaleDown       int64 // benchmark schema row divisor
	Templates       int   // query templates per dataset
	TrainWorkloads  int   // workloads for RL training
	TestWorkloads   int   // workloads for assessment
	WorkloadSize    int   // max queries per workload (sampled 1..N)
	UtilitySamples  int   // training samples for the learned utility model
	PretrainPairs   int
	PretrainEpochs  int
	RLEpochs        int
	AdvisorEpisodes int // training episodes for learned advisors
	Eps             int
	Theta           float64
	RandomAttempts  int // the Random baseline's extra sample budget (5x)
	Sizes           core.Sizes
}

// QuickParams returns the fast configuration used by tests and benches.
func QuickParams() Params {
	return Params{
		ScaleDown:       200,
		Templates:       10,
		TrainWorkloads:  6,
		TestWorkloads:   6,
		WorkloadSize:    6,
		UtilitySamples:  400,
		PretrainPairs:   6,
		PretrainEpochs:  2,
		RLEpochs:        3,
		AdvisorEpisodes: 40,
		Eps:             5,
		Theta:           0.1,
		RandomAttempts:  5,
		Sizes:           core.Sizes{Embed: 16, Hidden: 16},
	}
}

// FullParams returns the heavier configuration for the CLI (still far
// below the paper's 20k/5k workloads, which need days of compute).
func FullParams() Params {
	return Params{
		ScaleDown:       20,
		Templates:       20,
		TrainWorkloads:  24,
		TestWorkloads:   16,
		WorkloadSize:    12,
		UtilitySamples:  2000,
		PretrainPairs:   40,
		PretrainEpochs:  8,
		RLEpochs:        10,
		AdvisorEpisodes: 120,
		Eps:             5,
		Theta:           0.1,
		RandomAttempts:  5,
		Sizes:           core.DefaultSizes(),
	}
}

// Suite bundles one dataset's assessment context.
//
// # Concurrency
//
// A Suite may be shared by concurrent assessments (trapd runs one suite
// per dataset across its whole worker pool) under the following
// contract: the engine, workloads, vocabulary and utility model are safe
// for concurrent use; BuildAdvisor, BuildMethod, Measure/MeasureOn and
// UtilityOf may run concurrently as long as every call operates on its
// own advisor/method instances (advisors and frameworks are stateful).
// The shared pretraining cache and the workload generator's RNG are
// serialized internally by mu.
//
// MeasureOn additionally fans its own test-workload cells across a
// bounded pool (MeasureWorkers). Its first cell runs sequentially so a
// learned advisor's lazily initialized state is warm before concurrent
// cells issue read-only Recommend calls — the same warm-then-fan
// contract the RL rollout pool uses (see internal/core).
type Suite struct {
	Name    string
	P       Params
	E       *engine.Engine
	Gen     *workload.Generator
	Vocab   *core.Vocab
	Utility *core.UtilityModel
	Train   []*workload.Workload
	Test    []*workload.Workload
	Seed    int64

	// Storage is the storage-budget constraint (half the dataset size,
	// the paper's moderate default); Count is the #index constraint.
	Storage advisor.Constraint
	Count   advisor.Constraint

	// Inject, when non-nil, arms the fault-injection points of every
	// framework the suite builds (and should also be installed on E via
	// SetInjector by the owner). Set before any BuildMethod call; nil
	// disables injection.
	Inject faultinject.Injector

	// MeasureWorkers bounds MeasureOn's per-workload cell pool
	// (0: GOMAXPROCS; 1: sequential). Assessments are bit-identical for
	// every value — the pool only changes wall-clock time.
	MeasureWorkers int
	// TrainWorkers is installed as RolloutWorkers on every framework the
	// suite builds, bounding the RL trajectory pool of method training
	// (0: GOMAXPROCS; 1: sequential). Also bit-identical for every value.
	TrainWorkers int

	// mu serializes the mutable shared state below (and Gen's RNG, which
	// the pretraining phase draws from).
	mu sync.Mutex
	// pretrained caches encoder snapshots per perturbation constraint so
	// the one-time pretraining phase is shared across advisors.
	pretrained map[core.PerturbConstraint][][]float64
}

// NewSuite builds a suite over a schema.
func NewSuite(name string, s *schema.Schema, p Params, seed int64) (*Suite, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := engine.New(s)
	gen := workload.NewGenerator(s, seed, p.Templates)
	var train, test []*workload.Workload
	for i := 0; i < p.TrainWorkloads; i++ {
		train = append(train, gen.WorkloadSized(p.WorkloadSize))
	}
	for i := 0; i < p.TestWorkloads; i++ {
		test = append(test, gen.WorkloadSized(p.WorkloadSize))
	}
	vocab := core.BuildVocab(s, append(append([]*workload.Workload(nil), train...), test...))
	um, err := core.TrainUtilityModel(e, gen, p.UtilitySamples, seed+1)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Name: name, P: p, E: e, Gen: gen, Vocab: vocab, Utility: um,
		Train: train, Test: test, Seed: seed,
		Storage:    advisor.Constraint{StorageBytes: s.TotalSizeBytes() / 2},
		Count:      advisor.Constraint{MaxIndexes: 4},
		pretrained: map[core.PerturbConstraint][][]float64{},
	}, nil
}

// AdvisorSpec describes one of the ten assessed advisors (Table III):
// its constructor, its tuning constraint kind, and its utility baseline
// Ib (the empty configuration for heuristics; the named heuristic for
// learned advisors, per the paper's pairing).
type AdvisorSpec struct {
	Name     string
	Learned  bool
	Baseline string // "" = null configuration
	Storage  bool   // storage budget vs #index constraint
	Make     func(seed int64) advisor.Advisor
}

// TenAdvisors returns the paper's ten advisors.
func TenAdvisors() []AdvisorSpec {
	return []AdvisorSpec{
		{Name: "Extend", Storage: true, Make: func(int64) advisor.Advisor { return &advisor.Extend{Opt: advisor.DefaultOptions()} }},
		{Name: "DB2Advis", Storage: true, Make: func(int64) advisor.Advisor { return &advisor.DB2Advis{Opt: advisor.DefaultOptions()} }},
		{Name: "AutoAdmin", Make: func(int64) advisor.Advisor { return &advisor.AutoAdmin{Opt: advisor.DefaultOptions()} }},
		{Name: "Drop", Make: func(int64) advisor.Advisor { return &advisor.Drop{} }},
		{Name: "Relaxation", Storage: true, Make: func(int64) advisor.Advisor { return &advisor.Relaxation{Opt: advisor.DefaultOptions()} }},
		{Name: "DTA", Storage: true, Make: func(int64) advisor.Advisor { return &advisor.DTA{Opt: advisor.DefaultOptions()} }},
		{Name: "SWIRL", Learned: true, Baseline: "Extend", Storage: true,
			Make: func(seed int64) advisor.Advisor { return advisor.NewSWIRL(seed) }},
		{Name: "DRLindex", Learned: true, Baseline: "Drop",
			Make: func(seed int64) advisor.Advisor { return advisor.NewDRLindex(seed) }},
		{Name: "DQN", Learned: true, Baseline: "AutoAdmin",
			Make: func(seed int64) advisor.Advisor { return advisor.NewDQN(seed) }},
		{Name: "MCTS", Learned: true, Baseline: "AutoAdmin",
			Make: func(seed int64) advisor.Advisor { return advisor.NewMCTS(seed) }},
	}
}

// SpecByName returns the named advisor spec.
func SpecByName(name string) (AdvisorSpec, error) {
	for _, s := range TenAdvisors() {
		if s.Name == name {
			return s, nil
		}
	}
	return AdvisorSpec{}, fmt.Errorf("assess: unknown advisor %q", name)
}

// ConstraintFor returns the tuning constraint an advisor is assessed
// under (same kind and magnitude for fairness, per Section V-A).
func (s *Suite) ConstraintFor(spec AdvisorSpec) advisor.Constraint {
	if spec.Storage {
		return s.Storage
	}
	return s.Count
}

// BuildAdvisor constructs (and for learned advisors trains) the advisor.
func (s *Suite) BuildAdvisor(spec AdvisorSpec) (advisor.Advisor, error) {
	return s.BuildAdvisorCtx(context.Background(), spec)
}

// BuildAdvisorCtx is BuildAdvisor with cooperative cancellation: when the
// advisor implements advisor.CtxTrainable, training stops at the next
// episode boundary once ctx is done.
func (s *Suite) BuildAdvisorCtx(ctx context.Context, spec AdvisorSpec) (adv advisor.Advisor, err error) {
	ctx, tsp := trace.Start(ctx, "assess.build_advisor")
	ctx, restore := trace.Layer(ctx, "advisor_build")
	defer restore()
	tsp.Str("advisor", spec.Name)
	defer func() { tsp.Fail(err); tsp.End() }()
	a := spec.Make(s.Seed)
	switch v := a.(type) {
	case *advisor.SWIRL:
		v.Episodes = s.P.AdvisorEpisodes
	case *advisor.DRLindex:
		v.Episodes = s.P.AdvisorEpisodes
	case *advisor.DQN:
		v.Episodes = s.P.AdvisorEpisodes
	}
	if tr, ok := a.(advisor.Trainable); ok {
		var err error
		if ctr, ok := a.(advisor.CtxTrainable); ok {
			err = ctr.TrainCtx(ctx, s.E, s.Train, s.ConstraintFor(spec))
		} else {
			err = tr.Train(s.E, s.Train, s.ConstraintFor(spec))
		}
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// BaselineAdvisor returns the Ib provider for a spec (nil for the null
// configuration).
func (s *Suite) BaselineAdvisor(spec AdvisorSpec) advisor.Advisor {
	switch spec.Baseline {
	case "Extend":
		return &advisor.Extend{Opt: advisor.DefaultOptions()}
	case "Drop":
		return &advisor.Drop{}
	case "AutoAdmin":
		return &advisor.AutoAdmin{Opt: advisor.DefaultOptions()}
	}
	return nil
}

// baselineConfig computes Ib for a workload.
func (s *Suite) baselineConfig(base advisor.Advisor, c advisor.Constraint, w *workload.Workload) schema.Config {
	if base == nil {
		return nil
	}
	cfg, err := base.Recommend(s.E, w, c)
	if err != nil {
		return nil
	}
	return cfg
}

// UtilityOf measures the advisor's index utility on a workload with the
// runtime stand-in (Definition 3.2).
func (s *Suite) UtilityOf(a advisor.Advisor, base advisor.Advisor, c advisor.Constraint, w *workload.Workload) (float64, error) {
	return s.UtilityOfCtx(context.Background(), a, base, c, w)
}

// UtilityOfCtx is UtilityOf with cooperative cancellation of the
// runtime-costing loops.
func (s *Suite) UtilityOfCtx(ctx context.Context, a advisor.Advisor, base advisor.Advisor, c advisor.Constraint, w *workload.Workload) (float64, error) {
	mRecommendCalls.Inc()
	sp := obs.StartSpan(mRecommendSecs)
	cfg, err := a.Recommend(s.E, w, c)
	sp.End()
	if err != nil {
		return 0, err
	}
	return workload.UtilityCtx(ctx, s.E, w, cfg, s.baselineConfig(base, c, w))
}

// rng derives a deterministic sub-rng.
func (s *Suite) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.Seed*1_000_003 + salt))
}

// measureWorkers resolves the measurement pool size.
func (s *Suite) measureWorkers() int {
	if s.MeasureWorkers > 0 {
		return s.MeasureWorkers
	}
	return runtime.GOMAXPROCS(0)
}
