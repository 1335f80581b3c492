package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/stats"
	"github.com/trap-repro/trap/internal/workload"
)

func setup(t testing.TB) (*engine.Engine, *workload.Generator) {
	t.Helper()
	s := bench.TPCH(100)
	return engine.New(s), workload.NewGenerator(s, 17, 10)
}

func TestTrainAndPredict(t *testing.T) {
	e, gen := setup(t)
	m, err := Train(e, gen.Query, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := m.R2(e, gen.Query, 150, 2); r2 < 0.5 {
		t.Errorf("R2 = %v, want >= 0.5", r2)
	}
	q := gen.Query()
	c, err := m.QueryCost(e, q, nil)
	if err != nil || c <= 0 || math.IsNaN(c) {
		t.Errorf("QueryCost = %v (%v)", c, err)
	}
}

func TestModelBeatsWhatIfOnRelativeError(t *testing.T) {
	// The whole point of the learned model: smaller relative error
	// against runtime than the raw what-if estimate.
	e, gen := setup(t)
	m, err := Train(e, gen.Query, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var errModel, errWhatIf float64
	n := 0
	for n < 150 {
		q := gen.Query()
		cfg := RandomConfig(e.Schema(), q, rng)
		truth, err := e.RuntimeCost(q, cfg)
		if err != nil || truth <= 0 {
			continue
		}
		pred, err := m.QueryCost(e, q, cfg)
		if err != nil {
			continue
		}
		est, err := e.QueryCost(q, cfg, engine.ModeEstimated)
		if err != nil {
			continue
		}
		errModel += math.Abs(pred-truth) / truth
		errWhatIf += math.Abs(est-truth) / truth
		n++
	}
	if errModel >= errWhatIf {
		t.Errorf("learned model rel-err %.3f not below what-if %.3f",
			errModel/float64(n), errWhatIf/float64(n))
	}
}

func TestTrainOnWorkloads(t *testing.T) {
	e, gen := setup(t)
	var ws []*workload.Workload
	for i := 0; i < 4; i++ {
		ws = append(ws, gen.Workload(5))
	}
	m, err := TrainOnWorkloads(e, ws, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	base, err := m.WorkloadCost(e, w, nil)
	if err != nil || base <= 0 {
		t.Fatalf("WorkloadCost = %v (%v)", base, err)
	}
	u, err := m.Utility(e, w, nil, nil)
	if err != nil || u != 0 {
		t.Errorf("self-utility = %v (%v), want 0", u, err)
	}
}

func TestTrainWithoutSamplesFails(t *testing.T) {
	e, _ := setup(t)
	if m, err := TrainOnWorkloads(e, nil, 4, 5); err == nil || m != nil {
		t.Errorf("TrainOnWorkloads without workloads = %v, %v; want an error", m, err)
	}
}

func TestTrainSkipsNonFiniteSamples(t *testing.T) {
	// A NaN NDV bias poisons every estimated plan's features: each draw
	// must count as a miss, leaving nothing to train on.
	s := bench.TPCH(100)
	e := engine.NewWithError(s, stats.EstimationError{NDVAmp: math.NaN()})
	gen := workload.NewGenerator(s, 17, 10)
	feats, _, misses := collect(e, gen.Query, 20, 1)
	if len(feats) != 0 || misses != 200 {
		t.Errorf("collect kept %d samples with %d misses, want 0 and 200", len(feats), misses)
	}
	if m, err := Train(e, gen.Query, 20, 1); err == nil || m != nil {
		t.Errorf("Train on non-finite features = %v, %v; want an error", m, err)
	}
}

func TestRandomConfigRelevance(t *testing.T) {
	e, gen := setup(t)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		q := gen.Query()
		cfg := RandomConfig(e.Schema(), q, rng)
		touched := map[string]bool{}
		for _, c := range q.Columns() {
			touched[c.String()] = true
		}
		for _, ix := range cfg {
			for _, col := range ix.Columns {
				if !touched[ix.Table+"."+col] {
					t.Errorf("random config touches foreign column %s.%s", ix.Table, col)
				}
			}
		}
	}
}

func TestUtilityOrdering(t *testing.T) {
	// Against the null baseline, a useful configuration must have
	// positive learned utility.
	e, gen := setup(t)
	m, err := Train(e, gen.Query, 600, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Workload(6)
	var cfg schema.Config
	for _, c := range w.Columns() {
		cfg = cfg.Add(schema.Index{Table: c.Table, Columns: []string{c.Column}})
	}
	u, err := m.Utility(e, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u < -0.1 {
		t.Errorf("full single-column config has learned utility %v", u)
	}
}
