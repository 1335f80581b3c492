package gbdt_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/costmodel"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/gbdt"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

// TestSuiteUtilityMatchesReference trains the learned utility model of a
// QuickParams tpch suite (seed 42) with both builders on the suite's own
// training set and requires the same trees bit for bit. It lives here,
// not in internal/costmodel, because the reference builder is test code
// of this package.
func TestSuiteUtilityMatchesReference(t *testing.T) {
	const seed = 42
	p := assess.QuickParams()
	s := bench.TPCH(p.ScaleDown)
	suite, err := assess.NewSuite("tpch", s, p, seed)
	if err != nil {
		t.Fatal(err)
	}

	// Redraw the training set the way NewSuite and costmodel.Train do:
	// the generator past the suite's workloads, random configurations
	// from seed+1, failed draws skipped.
	gen := workload.NewGenerator(s, seed, p.Templates)
	for i := 0; i < p.TrainWorkloads+p.TestWorkloads; i++ {
		gen.WorkloadSized(p.WorkloadSize)
	}
	type draw struct {
		q   *sqlx.Query
		cfg schema.Config
	}
	rng := rand.New(rand.NewSource(seed + 1))
	var draws []draw
	var xs [][]float64
	var ys []float64
	for misses := 0; len(xs) < p.UtilitySamples && misses < 10*p.UtilitySamples; {
		q := gen.Query()
		cfg := costmodel.RandomConfig(suite.E.Schema(), q, rng)
		plan, err := suite.E.Plan(q, cfg, engine.ModeEstimated)
		if err != nil {
			misses++
			continue
		}
		rc, err := suite.E.RuntimeCost(q, cfg)
		if err != nil {
			misses++
			continue
		}
		draws = append(draws, draw{q, cfg})
		xs = append(xs, engine.PlanFeatures(plan))
		ys = append(ys, rc)
	}

	cfg := gbdt.Config{Trees: 120, MaxDepth: 5, LogTarget: true}
	got := gbdt.Train(xs, ys, cfg)
	if msg := gbdt.DiffModels(got, gbdt.RefTrain(xs, ys, cfg)); msg != "" {
		t.Fatalf("presorted builder differs from the reference: %s", msg)
	}
	// The redrawn set is the suite's own only if the suite's model
	// predicts exactly what this one does on every sample.
	for i, d := range draws {
		want, err := suite.Utility.QueryCost(suite.E, d.q, d.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g := got.Predict(xs[i]); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("sample %d: model predicts %v, suite's utility model %v: not the suite's training set", i, g, want)
		}
	}
}
