// Package workload defines workloads (weighted query sets), the template
// based SPAJ query generator used to build training and evaluation
// workloads (following the paper's Section V-A recipe of synthesizing
// Select-Project-Aggregate-Join queries over a meaningful join graph), the
// index-utility and IUDR metrics of Definitions 3.2/3.3, and the query
// change taxonomy of Section VI-C.
package workload

import (
	"context"
	"strings"

	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/obs"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
)

// mUtilityEvals counts index-utility evaluations of a whole workload:
// how often the attack and training loops ask for u(W, I).
var mUtilityEvals = obs.Default().Counter("trap_workload_utility_evals_total")

// Item is one workload entry: a query and its weight (frequency). The
// assessments use unit weights, matching the paper's fair-comparison setup.
// It is the engine's batch item, so Items go to CostBatch as they are.
type Item = engine.CostItem

// Workload is a weighted set of queries, W = {(q, e)}.
type Workload struct {
	Items []Item
}

// New builds a unit-weight workload from queries.
func New(queries ...*sqlx.Query) *Workload {
	w := &Workload{}
	for _, q := range queries {
		w.Items = append(w.Items, Item{Query: q, Weight: 1})
	}
	return w
}

// Size returns the number of queries.
func (w *Workload) Size() int { return len(w.Items) }

// Queries returns the queries in order.
func (w *Workload) Queries() []*sqlx.Query {
	out := make([]*sqlx.Query, len(w.Items))
	for i, it := range w.Items {
		out[i] = it.Query
	}
	return out
}

// Clone deep-copies the workload.
func (w *Workload) Clone() *Workload {
	c := &Workload{Items: make([]Item, len(w.Items))}
	for i, it := range w.Items {
		c.Items[i] = Item{Query: it.Query.Clone(), Weight: it.Weight}
	}
	return c
}

// Key returns a canonical identity string for caching.
func (w *Workload) Key() string {
	var b strings.Builder
	for _, it := range w.Items {
		b.WriteString(it.Query.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Tables returns the distinct tables referenced anywhere in the workload.
func (w *Workload) Tables() []string {
	seen := map[string]bool{}
	var out []string
	for _, it := range w.Items {
		for _, t := range it.Query.Tables() {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// Columns returns the distinct columns referenced anywhere in the workload.
func (w *Workload) Columns() []sqlx.ColumnRef {
	seen := map[sqlx.ColumnRef]bool{}
	var out []sqlx.ColumnRef
	for _, it := range w.Items {
		for _, c := range it.Query.Columns() {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Cost evaluates the weighted workload cost c(W, d, I) under the given
// index configuration and statistics mode.
func Cost(e *engine.Engine, w *Workload, cfg schema.Config, mode engine.Mode) (float64, error) {
	return CostCtx(context.Background(), e, w, cfg, mode)
}

// CostCtx is Cost with cooperative cancellation: costing stops at the
// next query boundary once ctx is done.
func CostCtx(ctx context.Context, e *engine.Engine, w *Workload, cfg schema.Config, mode engine.Mode) (float64, error) {
	return e.CostBatch(ctx, w.Items, cfg, mode)
}

// RuntimeCost evaluates the workload with the actual-runtime stand-in.
func RuntimeCost(e *engine.Engine, w *Workload, cfg schema.Config) (float64, error) {
	return RuntimeCostCtx(context.Background(), e, w, cfg)
}

// RuntimeCostCtx is RuntimeCost with cooperative cancellation: costing
// stops at the next query boundary once ctx is done, so a canceled
// assessment does not drain the whole runtime-costing loop.
func RuntimeCostCtx(ctx context.Context, e *engine.Engine, w *Workload, cfg schema.Config) (float64, error) {
	return e.RuntimeBatch(ctx, w.Items, cfg)
}

// Utility computes the index utility of Definition 3.2:
// u = 1 - c(W, d, I) / c(W, d, Ib), evaluated with the runtime stand-in.
func Utility(e *engine.Engine, w *Workload, cfg, base schema.Config) (float64, error) {
	return UtilityCtx(context.Background(), e, w, cfg, base)
}

// UtilityCtx is Utility with cooperative cancellation.
func UtilityCtx(ctx context.Context, e *engine.Engine, w *Workload, cfg, base schema.Config) (float64, error) {
	mUtilityEvals.Inc()
	cb, err := RuntimeCostCtx(ctx, e, w, base)
	if err != nil {
		return 0, err
	}
	ci, err := RuntimeCostCtx(ctx, e, w, cfg)
	if err != nil {
		return 0, err
	}
	if cb <= 0 {
		return 0, nil
	}
	return 1 - ci/cb, nil
}

// IUDR is the Index Utility Decrease Ratio of Definition 3.3:
// IUDR = 1 - u(W')/u(W). Positive values mean the perturbed workload
// degraded the advisor; callers must ensure uOrig > θ > 0.
func IUDR(uOrig, uPert float64) float64 {
	if uOrig == 0 {
		return 0
	}
	return 1 - uPert/uOrig
}
