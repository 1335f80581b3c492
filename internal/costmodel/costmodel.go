// Package costmodel implements the learned cost model shared by TRAP's
// reward (the Section IV-B learned index utility, a LightGBM stand-in)
// and the learning-based advisors (the execution-feedback advantage of
// the "AI meets AI" line of work the paper builds on): a GBDT mapping a
// plan's Figure 4 feature vector to observed runtime cost, correcting the
// what-if optimizer's systematic estimation errors.
package costmodel

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/gbdt"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

// Model predicts runtime cost from estimated-plan features.
type Model struct {
	m *gbdt.Model
}

// gbdtConfig is the paper's training recipe: normalized features,
// log-transformed target, MSE.
func gbdtConfig() gbdt.Config {
	return gbdt.Config{Trees: 120, MaxDepth: 5, LogTarget: true}
}

// Train collects a dataset by drawing queries from nextQuery, planning
// them under random relevant index configurations, extracting plan
// features and labelling with the runtime cost, then fits the GBDT. It
// fails when no draw yields a sample.
func Train(e *engine.Engine, nextQuery func() *sqlx.Query, samples int, seed int64) (*Model, error) {
	feats, costs, misses := collect(e, nextQuery, samples, seed)
	if len(feats) == 0 {
		return nil, fmt.Errorf("costmodel: no training sample in %d draws", misses)
	}
	return &Model{m: gbdt.Train(feats, costs, gbdtConfig())}, nil
}

// collect draws up to samples labelled plan-feature rows, giving up after
// 10× as many misses. A draw misses when planning or costing fails, or
// when a feature or the label is not finite, which gbdt.Train cannot
// take.
func collect(e *engine.Engine, nextQuery func() *sqlx.Query, samples int, seed int64) (feats [][]float64, costs []float64, misses int) {
	rng := rand.New(rand.NewSource(seed))
	for len(feats) < samples && misses < samples*10 {
		q := nextQuery()
		cfg := RandomConfig(e.Schema(), q, rng)
		p, err := e.Plan(q, cfg, engine.ModeEstimated)
		if err != nil {
			misses++
			continue
		}
		rc, err := e.RuntimeCost(q, cfg)
		if err != nil {
			misses++
			continue
		}
		f := engine.PlanFeatures(p)
		if !finite(rc, f) {
			misses++
			continue
		}
		feats = append(feats, f)
		costs = append(costs, rc)
	}
	return feats, costs, misses
}

func finite(label float64, feats []float64) bool {
	if math.IsNaN(label) || math.IsInf(label, 0) {
		return false
	}
	for _, v := range feats {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TrainOnWorkloads fits the model from the queries of training workloads
// (how a learning-based advisor accumulates execution feedback during
// its training phase).
func TrainOnWorkloads(e *engine.Engine, ws []*workload.Workload, samplesPerQuery int, seed int64) (*Model, error) {
	var queries []*sqlx.Query
	for _, w := range ws {
		queries = append(queries, w.Queries()...)
	}
	if len(queries) == 0 || samplesPerQuery < 1 {
		samplesPerQuery = 1
	}
	i := 0
	next := func() *sqlx.Query {
		q := queries[i%len(queries)]
		i++
		return q
	}
	return Train(e, next, len(queries)*samplesPerQuery, seed)
}

// RandomConfig samples an index configuration relevant to q.
func RandomConfig(s *schema.Schema, q *sqlx.Query, rng *rand.Rand) schema.Config {
	var cfg schema.Config
	cols := q.Columns()
	for _, c := range cols {
		if rng.Float64() < 0.4 {
			cfg = cfg.Add(schema.Index{Table: c.Table, Columns: []string{c.Column}})
		}
	}
	if len(cols) >= 2 && rng.Float64() < 0.3 {
		a, b := cols[rng.Intn(len(cols))], cols[rng.Intn(len(cols))]
		if a.Table == b.Table && a.Column != b.Column {
			cfg = cfg.Add(schema.Index{Table: a.Table, Columns: []string{a.Column, b.Column}})
		}
	}
	return cfg
}

// QueryCost predicts the runtime cost of q under cfg.
func (u *Model) QueryCost(e *engine.Engine, q *sqlx.Query, cfg schema.Config) (float64, error) {
	p, err := e.Plan(q, cfg, engine.ModeEstimated)
	if err != nil {
		return 0, err
	}
	return u.m.Predict(engine.PlanFeatures(p)), nil
}

// WorkloadCost predicts the weighted runtime cost of a workload.
func (u *Model) WorkloadCost(e *engine.Engine, w *workload.Workload, cfg schema.Config) (float64, error) {
	return u.WorkloadCostCtx(context.Background(), e, w, cfg)
}

// WorkloadCostCtx is WorkloadCost with cooperative cancellation: the
// prediction loop stops at the next query boundary once ctx is done.
func (u *Model) WorkloadCostCtx(ctx context.Context, e *engine.Engine, w *workload.Workload, cfg schema.Config) (float64, error) {
	var sum float64
	for _, it := range w.Items {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c, err := u.QueryCost(e, it.Query, cfg)
		if err != nil {
			return 0, err
		}
		sum += it.Weight * c
	}
	return sum, nil
}

// Utility computes the index utility of Definition 3.2 with learned costs.
func (u *Model) Utility(e *engine.Engine, w *workload.Workload, cfg, base schema.Config) (float64, error) {
	return u.UtilityCtx(context.Background(), e, w, cfg, base)
}

// UtilityCtx is Utility with cooperative cancellation.
func (u *Model) UtilityCtx(ctx context.Context, e *engine.Engine, w *workload.Workload, cfg, base schema.Config) (float64, error) {
	cb, err := u.WorkloadCostCtx(ctx, e, w, base)
	if err != nil || cb <= 0 {
		return 0, err
	}
	ci, err := u.WorkloadCostCtx(ctx, e, w, cfg)
	if err != nil {
		return 0, err
	}
	return 1 - ci/cb, nil
}

// R2 evaluates the model against runtime costs on fresh samples.
func (u *Model) R2(e *engine.Engine, nextQuery func() *sqlx.Query, samples int, seed int64) float64 {
	feats, costs, _ := collect(e, nextQuery, samples, seed)
	return u.m.R2(feats, costs)
}
