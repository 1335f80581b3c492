package advisor

import (
	"context"
	"testing"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

// fixture builds a TPC-H engine, a training workload set and one test
// workload, shared across advisor tests.
type fixture struct {
	e     *engine.Engine
	gen   *workload.Generator
	train []*workload.Workload
	w     *workload.Workload
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := bench.TPCH(100)
	e := engine.New(s)
	gen := workload.NewGenerator(s, 42, 12)
	var train []*workload.Workload
	for i := 0; i < 8; i++ {
		train = append(train, gen.Workload(6))
	}
	return &fixture{e: e, gen: gen, train: train, w: gen.Workload(8)}
}

// storageConstraint gives a budget of roughly a few indexes.
func (f *fixture) storageConstraint() Constraint {
	return Constraint{StorageBytes: f.e.Schema().TotalSizeBytes() / 2}
}

func TestCandidatesRelevantAndDeduplicated(t *testing.T) {
	f := newFixture(t)
	cands := Candidates(f.e.Schema(), f.w, DefaultOptions())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	touched := map[string]bool{}
	for _, c := range f.w.Columns() {
		touched[c.String()] = true
	}
	seen := map[string]bool{}
	for _, ix := range cands {
		if seen[ix.Key()] {
			t.Errorf("duplicate candidate %s", ix.Key())
		}
		seen[ix.Key()] = true
		for _, col := range ix.Columns {
			if !touched[ix.Table+"."+col] {
				t.Errorf("irrelevant candidate column %s.%s", ix.Table, col)
			}
		}
		if len(ix.Columns) > 2 {
			t.Errorf("candidate wider than MaxWidth: %s", ix.Key())
		}
	}
	single := Candidates(f.e.Schema(), f.w, Options{MultiColumn: false})
	if len(single) >= len(cands) {
		t.Error("multi-column candidates missing")
	}
	for _, ix := range single {
		if len(ix.Columns) != 1 {
			t.Errorf("single-column option produced %s", ix.Key())
		}
	}
}

func TestConstraintFits(t *testing.T) {
	f := newFixture(t)
	s := f.e.Schema()
	ix := schema.Index{Table: "lineitem", Columns: []string{"l_shipdate"}}
	cN := Constraint{MaxIndexes: 1}
	if !cN.Fits(s, nil, ix) {
		t.Error("first index should fit MaxIndexes=1")
	}
	if cN.Fits(s, schema.Config{ix}, schema.Index{Table: "orders", Columns: []string{"o_orderdate"}}) {
		t.Error("second index should not fit MaxIndexes=1")
	}
	cS := Constraint{StorageBytes: ix.SizeBytes(s) * 1.5}
	if !cS.Fits(s, nil, ix) {
		t.Error("index should fit 1.5x its size")
	}
	if cS.Fits(s, schema.Config{ix}, ix) || cS.Satisfied(s, schema.Config{ix, ix}) {
		t.Error("storage constraint not enforced")
	}
}

// checkAdvisor runs an advisor and verifies the basics: constraint
// satisfied and what-if cost not increased.
func checkAdvisor(t *testing.T, f *fixture, a Advisor, c Constraint) schema.Config {
	t.Helper()
	cfg, err := a.Recommend(f.e, f.w, c)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	if !c.Satisfied(f.e.Schema(), cfg) {
		t.Fatalf("%s violated constraint: %s", a.Name(), cfg.Key())
	}
	base := WhatIfCost(f.e, f.w, nil)
	got := WhatIfCost(f.e, f.w, cfg)
	if got > base+1e-9 {
		t.Errorf("%s increased cost: %v -> %v", a.Name(), base, got)
	}
	return cfg
}

func TestExtendRecommends(t *testing.T) {
	f := newFixture(t)
	cfg := checkAdvisor(t, f, &Extend{Opt: DefaultOptions()}, f.storageConstraint())
	if len(cfg) == 0 {
		t.Error("Extend selected nothing")
	}
	base := WhatIfCost(f.e, f.w, nil)
	if WhatIfCost(f.e, f.w, cfg) >= base {
		t.Error("Extend produced no improvement")
	}
}

func TestExtendSingleColumnOnly(t *testing.T) {
	f := newFixture(t)
	a := &Extend{Opt: Options{MultiColumn: false, Interaction: true}}
	cfg := checkAdvisor(t, f, a, f.storageConstraint())
	for _, ix := range cfg {
		if len(ix.Columns) > 1 {
			t.Errorf("single-column mode produced %s", ix.Key())
		}
	}
}

func TestDB2AdvisRecommends(t *testing.T) {
	f := newFixture(t)
	cfg := checkAdvisor(t, f, &DB2Advis{Opt: DefaultOptions()}, f.storageConstraint())
	if len(cfg) == 0 {
		t.Error("DB2Advis selected nothing")
	}
}

func TestAutoAdminRecommends(t *testing.T) {
	f := newFixture(t)
	cfg := checkAdvisor(t, f, &AutoAdmin{Opt: DefaultOptions()}, Constraint{MaxIndexes: 4})
	if len(cfg) == 0 || len(cfg) > 4 {
		t.Errorf("AutoAdmin config size %d", len(cfg))
	}
}

func TestDropRecommends(t *testing.T) {
	f := newFixture(t)
	cfg := checkAdvisor(t, f, &Drop{}, Constraint{MaxIndexes: 3})
	if len(cfg) > 3 {
		t.Errorf("Drop kept %d indexes", len(cfg))
	}
	for _, ix := range cfg {
		if len(ix.Columns) != 1 {
			t.Errorf("Drop produced multi-column %s", ix.Key())
		}
	}
}

func TestRelaxationRecommends(t *testing.T) {
	f := newFixture(t)
	checkAdvisor(t, f, &Relaxation{Opt: DefaultOptions()}, f.storageConstraint())
	// Tight budget forces actual relaxation.
	tight := Constraint{StorageBytes: f.e.Schema().TotalSizeBytes() / 50}
	checkAdvisor(t, f, &Relaxation{Opt: DefaultOptions()}, tight)
}

func TestDTARecommends(t *testing.T) {
	f := newFixture(t)
	cfg := checkAdvisor(t, f, &DTA{Opt: DefaultOptions()}, f.storageConstraint())
	if len(cfg) == 0 {
		t.Error("DTA selected nothing")
	}
	// The anytime budget must bind: a tiny budget does not crash.
	small := &DTA{Opt: DefaultOptions(), MaxEvaluations: 3}
	checkAdvisor(t, f, small, f.storageConstraint())
}

func TestSWIRLTrainAndRecommend(t *testing.T) {
	f := newFixture(t)
	a := NewSWIRL(7)
	a.Episodes = 30
	c := f.storageConstraint()
	if err := a.Train(f.e, f.train, c); err != nil {
		t.Fatal(err)
	}
	cfg := checkAdvisor(t, f, a, c)
	_ = cfg
	if a.ParamCount() == 0 {
		t.Error("SWIRL reports zero parameters")
	}
}

func TestSWIRLCoarseStateVariant(t *testing.T) {
	f := newFixture(t)
	a := NewSWIRL(7)
	a.State = CoarseState
	a.Episodes = 10
	c := f.storageConstraint()
	if err := a.Train(f.e, f.train, c); err != nil {
		t.Fatal(err)
	}
	checkAdvisor(t, f, a, c)
}

func TestSWIRLWithoutPruning(t *testing.T) {
	f := newFixture(t)
	a := NewSWIRL(7)
	a.Pruning = false
	a.Episodes = 10
	checkAdvisor(t, f, a, f.storageConstraint())
}

func TestDRLindexTrainAndRecommend(t *testing.T) {
	f := newFixture(t)
	a := NewDRLindex(11)
	a.Episodes = 30
	c := Constraint{MaxIndexes: 3}
	if err := a.Train(f.e, f.train, c); err != nil {
		t.Fatal(err)
	}
	cfg := checkAdvisor(t, f, a, c)
	for _, ix := range cfg {
		if len(ix.Columns) != 1 {
			t.Errorf("DRLindex produced multi-column %s", ix.Key())
		}
	}
}

func TestDQNTrainAndRecommend(t *testing.T) {
	f := newFixture(t)
	a := NewDQN(13)
	a.Episodes = 30
	c := Constraint{MaxIndexes: 4}
	if err := a.Train(f.e, f.train, c); err != nil {
		t.Fatal(err)
	}
	checkAdvisor(t, f, a, c)
}

func TestMCTSRecommends(t *testing.T) {
	f := newFixture(t)
	a := NewMCTS(17)
	a.Iterations = 80
	cfg := checkAdvisor(t, f, a, Constraint{MaxIndexes: 4})
	base := WhatIfCost(f.e, f.w, nil)
	if len(cfg) > 0 && WhatIfCost(f.e, f.w, cfg) >= base {
		t.Error("MCTS kept useless indexes")
	}
}

func TestStateVectors(t *testing.T) {
	f := newFixture(t)
	c := f.storageConstraint()
	fine := StateVec(FineState, f.e, f.w, nil, c)
	coarse := StateVec(CoarseState, f.e, f.w, nil, c)
	if len(fine) != StateLen(FineState) || len(coarse) != StateLen(CoarseState) {
		t.Fatal("state lengths wrong")
	}
	nz := 0
	for _, v := range fine {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Error("fine state all zero")
	}
	// Adding indexes must change the fine state (plans change) and at
	// least the index counter of the coarse state.
	ix := schema.Index{Table: "lineitem", Columns: []string{"l_orderkey"}}
	fine2 := StateVec(FineState, f.e, f.w, schema.Config{ix}, c)
	diff := false
	for i := range fine {
		if fine[i] != fine2[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("fine state insensitive to configuration")
	}
	coarse2 := StateVec(CoarseState, f.e, f.w, schema.Config{ix}, c)
	if coarse2[len(coarse2)-1] == coarse[len(coarse)-1] {
		t.Error("coarse state index counter unchanged")
	}
}

func TestCandidateFeatures(t *testing.T) {
	f := newFixture(t)
	q := sqlx.MustParse("SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_shipdate <= 100")
	w := workload.New(q)
	feat := CandidateFeatures(f.e, w, schema.Index{Table: "lineitem", Columns: []string{"l_shipdate"}})
	if len(feat) != candFeatLen {
		t.Fatal("feature length wrong")
	}
	if feat[2] != 1 {
		t.Errorf("lead filter frequency = %v, want 1", feat[2])
	}
	unrelated := CandidateFeatures(f.e, w, schema.Index{Table: "orders", Columns: []string{"o_clerk"}})
	if unrelated[2] != 0 || unrelated[4] != 0 {
		t.Error("unrelated candidate has workload features")
	}
}

func TestEnvStepAndMask(t *testing.T) {
	f := newFixture(t)
	c := Constraint{MaxIndexes: 2}
	env := newEnv(context.Background(), f.e, f.w, c, FineState, true, 1, newEnvBase(f.e, f.w, DefaultOptions(), nil), nil)
	mask := env.validMask()
	if mask[len(env.cands)] {
		t.Fatal("stop action must be masked while candidates remain")
	}
	act := -1
	for i := range env.cands {
		if mask[i] {
			act = i
			break
		}
	}
	if act < 0 {
		t.Fatal("no valid action")
	}
	_, done := env.step(act)
	if done {
		t.Fatal("episode ended after one step with MaxIndexes=2")
	}
	if len(env.cfg) != 1 {
		t.Fatal("step did not add index")
	}
	// The same action must now be masked.
	if env.validMask()[act] {
		t.Error("selected action still valid")
	}
	// Stop ends the episode.
	if _, done := env.step(len(env.cands)); !done {
		t.Error("stop did not end episode")
	}
}

func TestNoiseCandidatesAreIrrelevant(t *testing.T) {
	f := newFixture(t)
	noise := noiseCandidates(f.e.Schema(), f.w, 20, 5)
	touched := map[string]bool{}
	for _, c := range f.w.Columns() {
		touched[c.String()] = true
	}
	for _, ix := range noise {
		if touched[ix.Table+"."+ix.Columns[0]] {
			t.Errorf("noise candidate %s touches the workload", ix.Key())
		}
	}
	if len(noise) == 0 {
		t.Error("no noise candidates produced")
	}
}

func TestBenefitInteractionMatters(t *testing.T) {
	f := newFixture(t)
	// With an equivalent index already present, the interaction-aware
	// benefit of a redundant index must be smaller than its isolated one.
	cands := Candidates(f.e.Schema(), f.w, Options{MultiColumn: false})
	var best schema.Index
	bestB := 0.0
	for _, ix := range cands {
		if b := Benefit(f.e, f.w, nil, ix, DefaultOptions()); b > bestB {
			bestB = b
			best = ix
		}
	}
	if bestB <= 0 {
		t.Skip("workload gains nothing from single-column indexes")
	}
	wider := schema.Index{Table: best.Table, Columns: append([]string{best.Columns[0]}, "extra")}
	_ = wider
	cfgWith := schema.Config{best}
	again := Benefit(f.e, f.w, cfgWith, best, DefaultOptions())
	if again != 0 {
		t.Errorf("re-adding identical index should have zero benefit, got %v", again)
	}
	iso := Benefit(f.e, f.w, cfgWith, best, Options{Interaction: false, MultiColumn: true})
	if iso <= 0 {
		t.Errorf("isolated benefit ignores interaction, want > 0, got %v", iso)
	}
}
